// Package workspace holds the compile-once, platform-independent
// analysis of one program: everything the MHLA flow derives from the
// application model alone, independent of the target platform and of
// the search options: the reuse analysis, the array lifetime spans,
// the per-candidate lifetime objects, the dependence tables and the
// per-block compute cycles. Every sweep point and batch job reads them
// from one Workspace; only platform-dependent factors (layer
// capacities, access and transfer costs) remain per-run.
//
// A Workspace is immutable after Compile/FromAnalysis and safe to
// share across goroutines: the concurrent sweep in internal/explore
// and the batch Explorer of pkg/mhla evaluate many platforms against
// one Workspace at once.
package workspace

import (
	"fmt"
	"sort"

	"mhla/internal/lifetime"
	"mhla/internal/model"
	"mhla/internal/reuse"
)

// Workspace is the compiled, platform-independent view of one
// program. All fields are read-only after construction and it holds
// no lock: everything a search derives from a platform (option
// enumerations, cost tables) lives in that search, so concurrent
// readers share nothing mutable.
type Workspace struct {
	// Program is the compiled program.
	Program *model.Program
	// Analysis is the data-reuse analysis (copy-candidate chains).
	Analysis *reuse.Analysis
	// Spans is the lifetime of every array in block indices.
	Spans map[string]lifetime.Span
	// NBlocks is the number of top-level blocks.
	NBlocks int

	// Arrays is Program.Arrays sorted by name — the fixed decision
	// order of the exact search engines and the render order of
	// Assignment.Objects.
	Arrays []*model.Array
	// ArrayIndex maps an array name to its index in Arrays.
	ArrayIndex map[string]int
	// ArrayObjs[i] is the ready-made lifetime object of Arrays[i];
	// ArrayUsed[i] reports whether it occupies space at all (unused
	// arrays have no live span and consume nothing).
	ArrayObjs []lifetime.Object
	ArrayUsed []bool

	// Chains aliases Analysis.Chains (deterministic analysis order).
	Chains []*reuse.Chain
	// ChainByID indexes Chains by chain ID; ChainIndex maps a chain ID
	// to its index in Chains (the analysis order the per-chain tables
	// below are aligned with).
	ChainByID  map[string]*reuse.Chain
	ChainIndex map[string]int
	// ChainArrayIdx[ci] is the index of chain ci's array in Arrays.
	ChainArrayIdx []int
	// CandObjs[ci][lv] is the ready-made lifetime object of copy
	// candidate lv of chain ci: ID "<chain>@<lv>", the candidate's
	// bytes, live exactly in the chain's block. Placing a copy during
	// a search or building Assignment.Objects is a table read instead
	// of a fmt.Sprintf per visit.
	CandObjs [][]lifetime.Object

	// WriterBlocks maps array names to the sorted block indices
	// containing write accesses — the dependence table of the
	// time-extension step.
	WriterBlocks map[string][]int

	// BlockCompute[bi] is the pure-compute cycle count of block bi;
	// TotalCompute is their sum.
	BlockCompute []int64
	TotalCompute int64
}

// Compile runs the data-reuse analysis (which validates the program)
// and builds the workspace tables. It is the one-stop entry point for
// callers starting from a bare program; callers that already hold an
// Analysis use FromAnalysis.
func Compile(p *model.Program) (*Workspace, error) {
	if p == nil {
		return nil, fmt.Errorf("workspace: nil program")
	}
	an, err := reuse.Analyze(p)
	if err != nil {
		return nil, fmt.Errorf("workspace: %w", err)
	}
	return FromAnalysis(an), nil
}

// FromAnalysis builds the workspace tables over an existing analysis
// (the program is assumed valid — reuse.Analyze validated it).
func FromAnalysis(an *reuse.Analysis) *Workspace {
	p := an.Program
	ws := &Workspace{
		Program:  p,
		Analysis: an,
		Spans:    lifetime.ArraySpans(p),
		NBlocks:  len(p.Blocks),
		Chains:   an.Chains,
	}

	ws.Arrays = append([]*model.Array(nil), p.Arrays...)
	sort.Slice(ws.Arrays, func(i, j int) bool { return ws.Arrays[i].Name < ws.Arrays[j].Name })
	ws.ArrayIndex = make(map[string]int, len(ws.Arrays))
	ws.ArrayObjs = make([]lifetime.Object, len(ws.Arrays))
	ws.ArrayUsed = make([]bool, len(ws.Arrays))
	for i, arr := range ws.Arrays {
		sp := ws.Spans[arr.Name]
		ws.ArrayIndex[arr.Name] = i
		ws.ArrayUsed[i] = sp.Used
		ws.ArrayObjs[i] = lifetime.Object{ID: arr.Name, Bytes: arr.Bytes(), Start: sp.Start, End: sp.End}
	}

	ws.ChainByID = make(map[string]*reuse.Chain, len(ws.Chains))
	ws.ChainIndex = make(map[string]int, len(ws.Chains))
	ws.ChainArrayIdx = make([]int, len(ws.Chains))
	ws.CandObjs = make([][]lifetime.Object, len(ws.Chains))
	for ci, ch := range ws.Chains {
		ws.ChainByID[ch.ID] = ch
		ws.ChainIndex[ch.ID] = ci
		ws.ChainArrayIdx[ci] = ws.ArrayIndex[ch.Array.Name]
		objs := make([]lifetime.Object, ch.Depth()+1)
		for lv := 0; lv <= ch.Depth(); lv++ {
			objs[lv] = lifetime.Object{
				ID:    fmt.Sprintf("%s@%d", ch.ID, lv),
				Bytes: ch.Candidate(lv).Bytes,
				Start: ch.BlockIndex,
				End:   ch.BlockIndex,
			}
		}
		ws.CandObjs[ci] = objs
	}

	ws.WriterBlocks = writerBlocks(p)

	ws.BlockCompute = make([]int64, len(p.Blocks))
	for bi, b := range p.Blocks {
		ws.BlockCompute[bi] = b.ComputeCycles()
		ws.TotalCompute += ws.BlockCompute[bi]
	}
	return ws
}

// WrittenIn reports whether the array is written in the given block.
func (ws *Workspace) WrittenIn(array string, block int) bool {
	for _, b := range ws.WriterBlocks[array] {
		if b == block {
			return true
		}
	}
	return false
}

// writerBlocks maps array names to the sorted block indices containing
// write accesses to them (the TE step's dependence table; previously
// recomputed inside internal/te per Extend call and again per
// initial-fill stream).
func writerBlocks(p *model.Program) map[string][]int {
	seen := make(map[string]map[int]bool)
	for _, ref := range p.Accesses() {
		if ref.Access.Kind != model.Write {
			continue
		}
		name := ref.Access.Array.Name
		if seen[name] == nil {
			seen[name] = make(map[int]bool)
		}
		seen[name][ref.BlockIndex] = true
	}
	out := make(map[string][]int, len(seen))
	for name, blocks := range seen {
		for b := range blocks {
			out[name] = append(out[name], b)
		}
		sort.Ints(out[name])
	}
	return out
}
