package lifetime

// Tracker is the incremental counterpart of Estimator: it keeps one
// layer's per-block occupancy profile as mutable running state, with
// Place/Unplace updating it one object at a time and the peak
// maintained alongside. A depth-first search that adds one object per
// decision and removes it on backtrack pays O(lifetime span) per step
// instead of rebuilding the whole profile (O(objects x blocks)) the
// way Estimator.Peak does from scratch.
//
// The invariant, relied on by the search engines and checked by the
// property/fuzz tests, is exact agreement with the batch estimator:
// after any interleaved sequence of Place/Unplace calls,
// Tracker.Peak() equals Estimator.Peak of the currently placed
// multiset, for the same NumBlocks and InPlace settings. Unplace must
// only remove objects previously placed (occupancy never goes
// negative under that discipline).
type Tracker struct {
	numBlocks int
	inPlace   bool
	prof      []int64
	// peak is the running maximum of prof; peakCount counts blocks
	// currently at that maximum, so Place maintains the pair in O(span)
	// and Unplace only rescans the profile when the last peak block
	// drops (peakCount reaching zero).
	peak      int64
	peakCount int
}

// NewTracker returns an empty tracker for a layer of a program with
// the given number of top-level blocks. inPlace mirrors
// Estimator.InPlace: when false every object occupies its space for
// the whole program.
func NewTracker(numBlocks int, inPlace bool) *Tracker {
	return &Tracker{
		numBlocks: numBlocks,
		inPlace:   inPlace,
		prof:      make([]int64, numBlocks),
		peakCount: numBlocks,
	}
}

// span clamps the object's lifetime exactly like Estimator.Profile:
// ignore InPlace=false spans, clip to the block range. An inverted
// result (start > end) means the object occupies nothing.
func (t *Tracker) span(o Object) (int, int) {
	start, end := o.Start, o.End
	if !t.inPlace {
		start, end = 0, t.numBlocks-1
	}
	if start < 0 {
		start = 0
	}
	if end >= t.numBlocks {
		end = t.numBlocks - 1
	}
	return start, end
}

// Place adds the object to the profile and raises the peak as needed.
// O(lifetime span).
func (t *Tracker) Place(o Object) {
	if o.Bytes == 0 {
		return
	}
	start, end := t.span(o)
	for b := start; b <= end; b++ {
		t.prof[b] += o.Bytes
		if t.prof[b] > t.peak {
			t.peak = t.prof[b]
			t.peakCount = 1
		} else if t.prof[b] == t.peak {
			t.peakCount++
		}
	}
}

// Unplace removes a previously placed object. O(lifetime span), plus
// a full profile rescan only when the removal lowers the peak.
func (t *Tracker) Unplace(o Object) {
	if o.Bytes == 0 {
		return
	}
	start, end := t.span(o)
	for b := start; b <= end; b++ {
		if t.prof[b] == t.peak {
			t.peakCount--
		}
		t.prof[b] -= o.Bytes
	}
	if t.peakCount == 0 {
		t.peak = 0
		for _, v := range t.prof {
			if v > t.peak {
				t.peak = v
				t.peakCount = 1
			} else if v == t.peak {
				t.peakCount++
			}
		}
	}
}

// Peak returns the current maximum occupancy over all blocks. O(1).
func (t *Tracker) Peak() int64 { return t.peak }

// Occupancy returns the current occupancy of one block (0 for indices
// outside the program).
func (t *Tracker) Occupancy(block int) int64 {
	if block < 0 || block >= t.numBlocks {
		return 0
	}
	return t.prof[block]
}

// NumBlocks returns the profile length the tracker was built with.
func (t *Tracker) NumBlocks() int { return t.numBlocks }
