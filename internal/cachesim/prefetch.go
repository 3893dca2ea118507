package cachesim

import "fmt"

// PrefetcherKind selects the prefetch algorithm of one cache level.
type PrefetcherKind int

const (
	// PrefetchNone disables prefetching at the level.
	PrefetchNone PrefetcherKind = iota
	// PrefetchNextLine proposes the next sequential line(s) on every
	// demand access — the canonical one-block-lookahead baseline.
	PrefetchNextLine
	// PrefetchStride tracks the per-site (PC-indexed) address delta
	// and, once two consecutive deltas agree, prefetches along the
	// stride — the reference stride predictor of the surveyed
	// literature.
	PrefetchStride
)

// String returns the parseable name.
func (k PrefetcherKind) String() string {
	switch k {
	case PrefetchNone:
		return "none"
	case PrefetchNextLine:
		return "nextline"
	case PrefetchStride:
		return "stride"
	default:
		return fmt.Sprintf("PrefetcherKind(%d)", int(k))
	}
}

// ParsePrefetcher parses a prefetcher name: "none", "nextline" or
// "stride".
func ParsePrefetcher(s string) (PrefetcherKind, error) {
	switch s {
	case "none", "":
		return PrefetchNone, nil
	case "nextline":
		return PrefetchNextLine, nil
	case "stride":
		return PrefetchStride, nil
	}
	return 0, fmt.Errorf("cachesim: unknown prefetcher %q (want none, nextline or stride)", s)
}

// strideEntry is one site's stride predictor state; the zero value is
// a site not seen yet.
type strideEntry struct {
	last   int64 // last byte address seen at the site
	stride int64 // last observed delta
	seen   bool
}

// observe runs the level's prefetcher on a demand access reaching it
// and issues its proposals (filtered by issue: already resident,
// buffered or in flight). pos is the document-order site ordinal, addr
// the byte address and line the level's line index of the access.
//
// Next-line proposes line+1 .. line+degree on every access. Stride
// keys predictor state by access site (the static program position
// stands in for the PC) and proposes addr+k*delta only when the
// current delta confirms the previous one — two-delta confidence —
// which keeps it quiet on irregular streams.
func (lv *level) observe(pos int, addr, line, now int64) {
	degree := int64(lv.cfg.PrefetchDegree)
	switch lv.cfg.Prefetcher {
	case PrefetchNextLine:
		for k := int64(1); k <= degree; k++ {
			lv.issue(line+k, now)
		}
	case PrefetchStride:
		e := &lv.stride[pos]
		if e.seen {
			d := addr - e.last
			if d != 0 && d == e.stride {
				for k := int64(1); k <= degree; k++ {
					lv.issue((addr+k*d)>>lv.lineShift, now)
				}
			}
			e.stride = d
		}
		e.last = addr
		e.seen = true
	}
}
