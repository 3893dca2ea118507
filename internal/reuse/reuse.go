// Package reuse implements the data-reuse analysis of the MHLA flow:
// for every array access (group) it derives the chain of copy
// candidates — one per loop level — with exact bounding-box footprints,
// update counts and transfer volumes.
//
// # Copy candidates
//
// Consider an access to array A inside the normalized loop nest
// L0..L(n-1) (outermost first) with affine index expressions. The copy
// candidate at level k (0 <= k <= n) holds the bounding box of the
// elements referenced while iterators i_k..i_(n-1) sweep their full
// ranges and i_0..i_(k-1) stay fixed. Its content therefore changes at
// every new iteration of the fixed prefix: level 0 is filled once per
// execution of the block, level n changes at every innermost
// iteration.
//
// Because the accesses are affine, the box extent in array dimension d
// is translation invariant:
//
//	extent_d(k) = 1 + Σ_{j>=k} |a_{j,d}| · (T_j − 1)
//
// where a_{j,d} is the coefficient of iterator j in dimension d and
// T_j the trip count.
//
// # Transfer volumes
//
// Updates happen in lexicographic order of the fixed prefix
// (i_0..i_(k-1)). An update step in which loop j increments (and loops
// j+1..k-1 wrap to zero) shifts the box by the known vector
//
//	shift_d = a_{j,d} − Σ_{m=j+1..k-1} a_{m,d} · (T_m − 1)
//
// and there are exactly (T_j − 1) · Π_{m<j} T_m such steps. Under the
// Slide policy (the copy retains still-valid elements, i.e. a sliding
// window / inter-copy reuse) only the non-overlapping part of the
// shifted box is transferred:
//
//	new_elems(shift) = box − Π_d max(0, extent_d − |shift_d|)
//
// Under the Refetch policy the whole box is transferred on every
// update. Both totals are computed in closed form by enumerating the k
// wrap classes — the iteration space is never walked.
package reuse

import (
	"fmt"
	"sort"
	"strings"

	"mhla/internal/model"
)

// Policy selects how much data a copy update transfers.
type Policy int

const (
	// Slide retains elements still covered by the new box and
	// transfers only new data (inter-copy reuse). This is the policy
	// the paper's data-reuse exploitation assumes.
	Slide Policy = iota
	// Refetch transfers the full box on every update (no inter-copy
	// reuse); used as an ablation baseline.
	Refetch
)

// String returns "slide" or "refetch".
func (p Policy) String() string {
	switch p {
	case Slide:
		return "slide"
	case Refetch:
		return "refetch"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// UpdateClass aggregates all copy updates that move the box by the
// same shift vector: the first fill plus one class per fixed-prefix
// loop that can increment.
type UpdateClass struct {
	// LoopIndex is the index (into the chain's Nest) of the loop
	// whose increment causes this update, or -1 for the initial fill.
	LoopIndex int
	// Count is how many updates of this class occur over the whole
	// block execution.
	Count int64
	// NewElems is the number of elements entering the box per update
	// of this class (the full box for the initial fill).
	NewElems int64
}

// Candidate is one copy candidate: a potential copy of part of an
// array kept at some memory layer, updated as the fixed loop prefix
// advances.
type Candidate struct {
	// Chain is the owning reuse chain.
	Chain *Chain
	// Level is the number of fixed enclosing loops (0..len(Nest)).
	Level int
	// Extents is the bounding-box extent per array dimension.
	Extents []int
	// Elems is the box volume in elements.
	Elems int64
	// Bytes is the box volume in bytes — the buffer space a copy at
	// this level occupies.
	Bytes int64
	// Updates is the number of content updates per block execution
	// (1 for level 0).
	Updates int64
	// Classes describes every update class, initial fill first, then
	// per incrementing loop from outermost to innermost fixed loop.
	Classes []UpdateClass
}

// TotalElems returns the total number of elements transferred into
// (for reads) or out of (for writes) the copy over the whole block
// execution under the given policy.
func (c *Candidate) TotalElems(p Policy) int64 {
	if p == Refetch {
		return c.Updates * c.Elems
	}
	var total int64
	for _, uc := range c.Classes {
		total += uc.Count * uc.NewElems
	}
	return total
}

// TotalBytes is TotalElems scaled to bytes.
func (c *Candidate) TotalBytes(p Policy) int64 {
	return c.TotalElems(p) * int64(c.Chain.Array.ElemSize)
}

// SteadyElems returns the elements moved by the most frequent update
// class (the innermost fixed loop incrementing) under the given
// policy. For level 0 it is the initial fill.
func (c *Candidate) SteadyElems(p Policy) int64 {
	if p == Refetch {
		return c.Elems
	}
	return c.Classes[len(c.Classes)-1].NewElems
}

// UpdateBytes returns the bytes moved by one update of the given
// class under the given policy.
func (c *Candidate) UpdateBytes(class int, p Policy) int64 {
	if p == Refetch {
		return c.Bytes
	}
	return c.Classes[class].NewElems * int64(c.Chain.Array.ElemSize)
}

// String renders the candidate compactly, e.g.
// "ref@2 box=24x24 (1152B) updates=396".
func (c *Candidate) String() string {
	dims := make([]string, len(c.Extents))
	for i, e := range c.Extents {
		dims[i] = fmt.Sprintf("%d", e)
	}
	return fmt.Sprintf("%s@%d box=%s (%dB) updates=%d",
		c.Chain.Array.Name, c.Level, strings.Join(dims, "x"), c.Bytes, c.Updates)
}

// Chain is the reuse chain of one access group: all copy candidates,
// from the whole-nest footprint (level 0) down to the single-element
// box (level n).
type Chain struct {
	// ID is a stable, unique chain identifier, deterministic across
	// runs ("<block>/<array>/<kind><ordinal>").
	ID string
	// Array is the accessed array.
	Array *model.Array
	// Kind is Read for fetch chains and Write for write-back chains.
	Kind model.AccessKind
	// BlockIndex locates the containing top-level block.
	BlockIndex int
	// Nest holds the enclosing loops, outermost first.
	Nest []*model.Loop
	// Accesses are the grouped access sites sharing this chain (same
	// block, nest, array, kind and coefficient signature).
	Accesses []model.AccessRef
	// Levels holds the candidates, Levels[k] at level k,
	// len == len(Nest)+1.
	Levels []*Candidate
}

// Candidate returns the candidate at the given level.
func (ch *Chain) Candidate(level int) *Candidate { return ch.Levels[level] }

// Depth returns the nest depth n; valid candidate levels are 0..n.
func (ch *Chain) Depth() int { return len(ch.Nest) }

// AccessesPerExecution returns how many CPU accesses the group
// performs per full block execution: one per access site per innermost
// iteration.
func (ch *Chain) AccessesPerExecution() int64 {
	var total int64
	for _, ref := range ch.Accesses {
		total += ref.Executions()
	}
	return total
}

// String summarises the chain.
func (ch *Chain) String() string {
	return fmt.Sprintf("chain %s: %d levels, %d access sites, %d accesses",
		ch.ID, len(ch.Levels), len(ch.Accesses), ch.AccessesPerExecution())
}

// Analysis is the result of analyzing a whole program.
type Analysis struct {
	// Program is the analyzed program.
	Program *model.Program
	// Chains lists every reuse chain in deterministic order (by block,
	// then by first access position).
	Chains []*Chain
}

// Analyze runs the data-reuse analysis on a validated program.
func Analyze(p *model.Program) (*Analysis, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("reuse: %w", err)
	}
	groups := groupAccesses(p.Accesses())
	an := &Analysis{Program: p}
	ordinals := make(map[string]int)
	for _, g := range groups {
		ch := buildChain(g)
		key := fmt.Sprintf("%s/%s/%s", p.Blocks[ch.BlockIndex].Name, ch.Array.Name, ch.Kind)
		ch.ID = fmt.Sprintf("%s%d", key, ordinals[key])
		ordinals[key]++
		an.Chains = append(an.Chains, ch)
	}
	return an, nil
}

// groupKey is the signature under which access sites share a chain:
// same block, same loop nest, same array, same kind and identical
// per-dimension coefficient vectors (only the constant offsets may
// differ, so all group members shift identically).
type groupKey struct {
	block int
	nest  string
	array *model.Array
	kind  model.AccessKind
	coefs string
}

func nestKey(nest []*model.Loop) string {
	var sb strings.Builder
	for _, l := range nest {
		fmt.Fprintf(&sb, "%p;", l)
	}
	return sb.String()
}

func coefKey(acc *model.Access, nest []*model.Loop) string {
	var sb strings.Builder
	for _, e := range acc.Index {
		for _, l := range nest {
			fmt.Fprintf(&sb, "%d,", e.Coef(l.Var))
		}
		sb.WriteByte('|')
	}
	return sb.String()
}

func groupAccesses(refs []model.AccessRef) [][]model.AccessRef {
	byKey := make(map[groupKey][]model.AccessRef)
	var order []groupKey
	for _, ref := range refs {
		k := groupKey{
			block: ref.BlockIndex,
			nest:  nestKey(ref.Nest),
			array: ref.Access.Array,
			kind:  ref.Access.Kind,
			coefs: coefKey(ref.Access, ref.Nest),
		}
		if _, seen := byKey[k]; !seen {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], ref)
	}
	// Deterministic order: by first member's document position.
	sort.Slice(order, func(i, j int) bool {
		return byKey[order[i]][0].Position < byKey[order[j]][0].Position
	})
	groups := make([][]model.AccessRef, len(order))
	for i, k := range order {
		groups[i] = byKey[k]
	}
	return groups
}

func buildChain(group []model.AccessRef) *Chain {
	first := group[0]
	ch := &Chain{
		Array:      first.Access.Array,
		Kind:       first.Access.Kind,
		BlockIndex: first.BlockIndex,
		Nest:       first.Nest,
		Accesses:   group,
	}
	n := len(ch.Nest)
	rank := ch.Array.Rank()

	// Per-dimension coefficients (identical across the group) and the
	// constant-offset spread of the group.
	coef := make([][]int, rank) // coef[d][j] = a_{j,d}
	for d := 0; d < rank; d++ {
		coef[d] = make([]int, n)
		for j, l := range ch.Nest {
			coef[d][j] = first.Access.Index[d].Coef(l.Var)
		}
	}
	constSpread := make([]int, rank) // max(Const) - min(Const) per dim
	for d := 0; d < rank; d++ {
		min, max := first.Access.Index[d].Const, first.Access.Index[d].Const
		for _, ref := range group[1:] {
			c := ref.Access.Index[d].Const
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		constSpread[d] = max - min
	}

	for k := 0; k <= n; k++ {
		ch.Levels = append(ch.Levels, buildCandidate(ch, k, coef, constSpread))
	}
	return ch
}

func buildCandidate(ch *Chain, k int, coef [][]int, constSpread []int) *Candidate {
	n := len(ch.Nest)
	rank := ch.Array.Rank()
	c := &Candidate{Chain: ch, Level: k}

	// Box extents: constant spread of the group plus the sweep of the
	// varying loops k..n-1.
	c.Extents = make([]int, rank)
	c.Elems = 1
	for d := 0; d < rank; d++ {
		ext := 1 + constSpread[d]
		for j := k; j < n; j++ {
			a := coef[d][j]
			if a < 0 {
				a = -a
			}
			ext += a * (ch.Nest[j].Trip - 1)
		}
		c.Extents[d] = ext
		c.Elems *= int64(ext)
	}
	c.Bytes = c.Elems * int64(ch.Array.ElemSize)

	// Updates: one per iteration of the fixed prefix.
	c.Updates = 1
	for j := 0; j < k; j++ {
		c.Updates *= int64(ch.Nest[j].Trip)
	}

	// Update classes: initial fill, then one class per fixed loop j
	// that increments (loops j+1..k-1 wrap).
	c.Classes = append(c.Classes, UpdateClass{LoopIndex: -1, Count: 1, NewElems: c.Elems})
	for j := 0; j < k; j++ {
		count := int64(ch.Nest[j].Trip - 1)
		for m := 0; m < j; m++ {
			count *= int64(ch.Nest[m].Trip)
		}
		if count == 0 {
			// Trip 1 loops never increment; keep the class for
			// stable indexing but with zero contribution.
			c.Classes = append(c.Classes, UpdateClass{LoopIndex: j, Count: 0, NewElems: 0})
			continue
		}
		overlap := int64(1)
		for d := 0; d < rank; d++ {
			shift := coef[d][j]
			for m := j + 1; m < k; m++ {
				shift -= coef[d][m] * (ch.Nest[m].Trip - 1)
			}
			if shift < 0 {
				shift = -shift
			}
			ov := c.Extents[d] - shift
			if ov < 0 {
				ov = 0
			}
			overlap *= int64(ov)
		}
		newElems := c.Elems - overlap
		c.Classes = append(c.Classes, UpdateClass{LoopIndex: j, Count: count, NewElems: newElems})
	}
	return c
}
