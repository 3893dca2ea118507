package lifetime_test

// Tests of the incremental occupancy Tracker. The contract under test
// is exact agreement with the batch Estimator: after ANY interleaved
// sequence of Place/Unplace calls, Tracker.Peak() must equal
// Estimator.Peak of the currently placed multiset. The property test
// draws its object pools from progen-generated scenarios (the same
// scenario family the exact-search differential harness sweeps), and
// the fuzz target drives arbitrary op sequences with the Estimator as
// oracle.

import (
	"math/rand"
	"testing"

	"mhla/internal/lifetime"
	"mhla/internal/progen"
	"mhla/internal/reuse"
)

func TestTrackerBasic(t *testing.T) {
	tr := lifetime.NewTracker(4, true)
	if tr.Peak() != 0 {
		t.Fatalf("empty tracker peak = %d, want 0", tr.Peak())
	}
	a := lifetime.Object{ID: "a", Bytes: 100, Start: 0, End: 1}
	b := lifetime.Object{ID: "b", Bytes: 50, Start: 1, End: 3}
	tr.Place(a)
	if tr.Peak() != 100 {
		t.Fatalf("peak after a = %d, want 100", tr.Peak())
	}
	tr.Place(b)
	if tr.Peak() != 150 {
		t.Fatalf("peak after a+b = %d, want 150 (overlap in block 1)", tr.Peak())
	}
	tr.Unplace(a)
	if tr.Peak() != 50 {
		t.Fatalf("peak after -a = %d, want 50", tr.Peak())
	}
	tr.Unplace(b)
	if tr.Peak() != 0 {
		t.Fatalf("peak after -a-b = %d, want 0", tr.Peak())
	}
	for bi := 0; bi < 4; bi++ {
		if tr.Occupancy(bi) != 0 {
			t.Fatalf("block %d occupancy = %d after full unplace", bi, tr.Occupancy(bi))
		}
	}
}

func TestTrackerStaticMode(t *testing.T) {
	// InPlace=false widens every object to the whole program, exactly
	// like Estimator.
	tr := lifetime.NewTracker(3, false)
	tr.Place(lifetime.Object{ID: "a", Bytes: 10, Start: 2, End: 2})
	tr.Place(lifetime.Object{ID: "b", Bytes: 10, Start: 0, End: 0})
	if tr.Peak() != 20 {
		t.Fatalf("static-mode peak = %d, want 20", tr.Peak())
	}
}

func TestTrackerClampsSpans(t *testing.T) {
	// Out-of-range spans are clipped like Estimator.Profile clips them;
	// fully out-of-range objects occupy nothing.
	e := &lifetime.Estimator{NumBlocks: 3, InPlace: true}
	tr := lifetime.NewTracker(3, true)
	objs := []lifetime.Object{
		{ID: "neg", Bytes: 7, Start: -2, End: 1},
		{ID: "over", Bytes: 5, Start: 1, End: 9},
		{ID: "outside", Bytes: 3, Start: 5, End: 9},
		{ID: "inverted", Bytes: 2, Start: 2, End: 0},
	}
	for _, o := range objs {
		tr.Place(o)
	}
	if got, want := tr.Peak(), e.Peak(objs); got != want {
		t.Fatalf("clamped peak = %d, estimator says %d", got, want)
	}
}

// trackerObjectPool derives a pool of realistic lifetime objects from
// a progen scenario: the program's arrays on their spans plus every
// copy candidate of every reuse chain — the same objects the exact
// search engines place and unplace.
func trackerObjectPool(t *testing.T, sc *progen.Scenario) ([]lifetime.Object, int) {
	t.Helper()
	an, err := reuse.Analyze(sc.Program)
	if err != nil {
		t.Fatalf("seed %d: analyze: %v", sc.Seed, err)
	}
	spans := lifetime.ArraySpans(sc.Program)
	var pool []lifetime.Object
	for _, arr := range sc.Program.Arrays {
		sp := spans[arr.Name]
		if !sp.Used {
			continue
		}
		pool = append(pool, lifetime.Object{ID: arr.Name, Bytes: arr.Bytes(), Start: sp.Start, End: sp.End})
	}
	for _, ch := range an.Chains {
		for lv := 0; lv <= ch.Depth(); lv++ {
			pool = append(pool, lifetime.Object{
				ID:    ch.ID,
				Bytes: ch.Candidate(lv).Bytes,
				Start: ch.BlockIndex,
				End:   ch.BlockIndex,
			})
		}
	}
	return pool, len(sc.Program.Blocks)
}

// TestTrackerMatchesEstimator is the progen-seeded property test:
// for dozens of generated scenarios, run a seeded random interleaving
// of Place/Unplace over the scenario's object pool and assert after
// every step that the incremental peak equals the batch Estimator's
// peak of the currently placed objects, in both in-place and static
// modes.
func TestTrackerMatchesEstimator(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	cfg := progen.Config{MaxSpace: 4000}
	for seed := int64(0); seed < seeds; seed++ {
		sc := cfg.Generate(seed)
		pool, nblocks := trackerObjectPool(t, sc)
		if len(pool) == 0 {
			continue
		}
		for _, inPlace := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			tr := lifetime.NewTracker(nblocks, inPlace)
			est := &lifetime.Estimator{NumBlocks: nblocks, InPlace: inPlace}
			var placed []lifetime.Object
			for step := 0; step < 300; step++ {
				if len(placed) > 0 && rng.Intn(2) == 0 {
					i := rng.Intn(len(placed))
					tr.Unplace(placed[i])
					placed[i] = placed[len(placed)-1]
					placed = placed[:len(placed)-1]
				} else {
					o := pool[rng.Intn(len(pool))]
					tr.Place(o)
					placed = append(placed, o)
				}
				if got, want := tr.Peak(), est.Peak(placed); got != want {
					t.Fatalf("seed %d inPlace=%v step %d: tracker peak %d != estimator peak %d (%d placed)",
						seed, inPlace, step, got, want, len(placed))
				}
				for b := 0; b < nblocks; b++ {
					if tr.Occupancy(b) < 0 {
						t.Fatalf("seed %d inPlace=%v step %d: negative occupancy %d in block %d",
							seed, inPlace, step, tr.Occupancy(b), b)
					}
				}
			}
		}
	}
}

// FuzzTracker drives the tracker with arbitrary byte-derived op
// sequences (placements with arbitrary spans including out-of-range
// ones, interleaved unplacements of previously placed objects) and
// checks the three invariants: occupancy never negative, peak always
// equal to the Estimator oracle, and peak monotone non-decreasing
// under Place.
func FuzzTracker(f *testing.F) {
	f.Add([]byte{3, 1, 0, 10, 0, 2, 1, 20, 1, 3})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 1, 255, 254, 7})
	f.Add([]byte{6, 1, 5, 100, 250, 3, 2, 7, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nblocks := int(data[0] % 8)
		inPlace := data[1]%2 == 0
		data = data[2:]
		tr := lifetime.NewTracker(nblocks, inPlace)
		est := &lifetime.Estimator{NumBlocks: nblocks, InPlace: inPlace}
		var placed []lifetime.Object
		for len(data) >= 4 {
			op, b1, b2, b3 := data[0], data[1], data[2], data[3]
			data = data[4:]
			if op%3 == 0 && len(placed) > 0 {
				i := int(b1) % len(placed)
				tr.Unplace(placed[i])
				placed[i] = placed[len(placed)-1]
				placed = placed[:len(placed)-1]
			} else {
				before := tr.Peak()
				start := int(int8(b2)) // signed: exercises clamping below 0
				o := lifetime.Object{
					ID:    "f",
					Bytes: int64(b1), // 0 allowed: zero-byte objects are no-ops
					Start: start,
					End:   start + int(b3%12) - 2, // may invert or overrun
				}
				tr.Place(o)
				placed = append(placed, o)
				if tr.Peak() < before {
					t.Fatalf("peak dropped from %d to %d under Place(%+v)", before, tr.Peak(), o)
				}
			}
			if got, want := tr.Peak(), est.Peak(placed); got != want {
				t.Fatalf("tracker peak %d != estimator peak %d with %d objects", got, want, len(placed))
			}
			for b := 0; b < nblocks; b++ {
				if tr.Occupancy(b) < 0 {
					t.Fatalf("negative occupancy %d in block %d", tr.Occupancy(b), b)
				}
			}
		}
	})
}
