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

// prefetcher observes every demand access reaching its level and
// proposes candidate line indices to fetch ahead. Proposals are
// filtered by the simulator (already resident, buffered or in flight)
// before they count as issued.
type prefetcher interface {
	// observe appends proposed line indices to out and returns it.
	// pos is the document-order site ordinal, addr the byte address
	// and line the level's line index of the access.
	observe(pos int, addr, line int64, out []int64) []int64
}

// nextLinePrefetcher proposes line+1 .. line+degree on every access.
type nextLinePrefetcher struct {
	degree int
}

func (p *nextLinePrefetcher) observe(pos int, addr, line int64, out []int64) []int64 {
	for k := 1; k <= p.degree; k++ {
		out = append(out, line+int64(k))
	}
	return out
}

// strideEntry is one site's predictor state; the zero value is a site
// not seen yet.
type strideEntry struct {
	last   int64 // last byte address seen at the site
	stride int64 // last observed delta
	seen   bool
}

// stridePrefetcher keys predictor state by access site (the static
// program position stands in for the PC). A proposal is made only when
// the current delta confirms the previous one — two-delta confidence —
// which keeps it quiet on irregular streams.
type stridePrefetcher struct {
	degree    int
	lineShift uint
	table     []strideEntry // indexed by site position
}

func (p *stridePrefetcher) observe(pos int, addr, line int64, out []int64) []int64 {
	e := &p.table[pos]
	if e.seen {
		d := addr - e.last
		if d != 0 && d == e.stride {
			for k := 1; k <= p.degree; k++ {
				out = append(out, (addr+int64(k)*d)>>p.lineShift)
			}
		}
		e.stride = d
	}
	e.last = addr
	e.seen = true
	return out
}

// newPrefetcher builds the level's prefetcher; sites is the number of
// access sites of the program (the stride table's size).
func newPrefetcher(cfg LevelConfig, lineShift uint, sites int) prefetcher {
	switch cfg.Prefetcher {
	case PrefetchNextLine:
		return &nextLinePrefetcher{degree: cfg.PrefetchDegree}
	case PrefetchStride:
		return &stridePrefetcher{degree: cfg.PrefetchDegree, lineShift: lineShift, table: make([]strideEntry, sites)}
	default:
		return nil
	}
}
