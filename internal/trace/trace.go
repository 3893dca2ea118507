// Package trace is the single source of the dynamic access order of a
// program: a streaming iterator over every array access a program's
// loop nests execute, in execution order.
//
// Two simulators replay this trace — the software-managed-copy
// simulator of internal/sim and the hardware cache/prefetch simulator
// of internal/cachesim — and they must never drift on what "the trace"
// means (which accesses run, in which order, under which iterator
// valuation). Factoring the walk here makes that a structural
// guarantee instead of a test obligation: both consume the same
// traversal.
//
// WalkStrips lowers the program once, up front, into a small tree of
// loops and strips. A leaf loop, one whose body holds only access
// sites, becomes one strip; a site outside any leaf loop becomes a
// one-iteration strip of its own. Each site carries its document-order
// position and its row-major linear element index as an affine form
// over the depth-indexed iterator values, split into the terms on the
// enclosing loops and the step: the merged coefficient of the leaf
// loop's own iterator. Entering a strip evaluates the outer terms once,
// so the consumer gets every site's linear index at iteration 0, its
// step and the trip count, and expands iteration it of site s as
// s.Linear + it*s.Step without touching a map, an expression or a
// callback per access. A consumer that needs the iterator values
// (internal/sim) copies Strip.Iters and, when Strip.Leaf is set, puts
// it in the copy's last slot. Allocation is O(sites + loops) per walk,
// independent of the trace length: the strips, the periods and the
// iterator slice are built with the lowering and reused on every entry.
//
// A period loop is a loop whose lowered body holds only strips: leaf
// loops and lone sites, as in "for y { for x { read; write } }" the y
// loop. Each strip of its body carries the same Strip.Period (nil for
// every other strip, including the strips of a loop that also nests a
// loop): the trip count, the current iteration Iter, the body's strips
// in order, and Skip. Each site of the body carries Shift, its linear
// index coefficient on the period iterator, so iteration Iter+j of the
// period runs every access of iteration Iter moved by j*Shift elements.
// A consumer that can account for whole iterations at once sets Skip
// while it handles the body's last strip; the walker then advances the
// period iterator by 1+Skip instead of 1, never yielding the skipped
// iterations. A Skip past the last iteration ends the loop, and the
// walker zeroes Skip before each iteration. A consumer that never sets
// it sees the plain walk.
//
// The lowering resolves every index term to the innermost enclosing
// loop of its name and drops terms naming no enclosing loop. That is
// the meaning of a validated program (model.Program.Validate rejects
// shadowed and out-of-scope iterators); the walk serves validated
// programs only. The MaxAccesses guard (against accidentally tracing
// paper-scale workloads) lives here too, so every trace consumer is
// bounded the same way.
package trace

import (
	"errors"
	"fmt"

	"mhla/internal/model"
)

// DefaultMaxAccesses is the trace bound applied when Options leaves
// MaxAccesses at zero.
const DefaultMaxAccesses = 5_000_000

// ErrLimit is wrapped by the walk's error when the program would execute
// more dynamic accesses than the configured bound; consumers branch on
// it with errors.Is to report "too large", not "broken".
var ErrLimit = errors.New("access limit exceeded")

// Options bound a trace run.
type Options struct {
	// MaxAccesses aborts the walk up front when the program would
	// execute more dynamic accesses than this. 0 means
	// DefaultMaxAccesses; a negative value is an error.
	MaxAccesses int64
}

// Strip is one entry of a leaf loop: Trip iterations of its sites, in
// document order within each iteration. A site outside any leaf loop is
// a strip of its own with Trip 1. The value passed to the yield
// callback belongs to the walk and is reused on the next entry of the
// same loop; consumers must not modify it.
type Strip struct {
	// Block is the index of the enclosing top-level block.
	Block int
	// Trip is the iteration count.
	Trip int
	// Sites are the strip's access sites in document order.
	Sites []StripSite
	// Iters are the values of the sites' enclosing loop iterators,
	// outermost first (Iters[j] belongs to model.AccessRef.Nest[j]).
	// For a leaf loop the last slot is the loop's own iterator, whose
	// value the walk leaves undefined: iteration it has it there.
	// Iters is read-only.
	Iters []int
	// Leaf says the strip is an entry of a leaf loop, not a site
	// outside any leaf loop.
	Leaf bool
	// Period is the period loop whose body holds the strip, or nil when
	// its enclosing loop also nests a loop or there is none.
	Period *Period
}

// Period is one period loop: a loop whose body holds only strips. The
// walk owns it; the consumer may write Skip only.
type Period struct {
	// Trip is the iteration count.
	Trip int
	// Iter is the current iteration, the value of the loop's iterator.
	Iter int
	// Strips are the body's strips in document order.
	Strips []*Strip
	// Skip is how many iterations after Iter the walk leaves out. The
	// walker zeroes it before each iteration and reads it once the
	// body's last strip returns; a value past the last iteration ends
	// the loop, and a negative one counts as 0.
	Skip int
}

// StripSite is one access site of a strip. Iteration it of the strip
// accesses element Linear + it*Step of the site's array.
type StripSite struct {
	// Site is the static access site.
	Site *model.Access
	// Position is the document-order ordinal of the site within the
	// program (model.AccessRef.Position).
	Position int
	// Linear is the row-major linear element index at iteration 0 of
	// this entry of the strip.
	Linear int64
	// Step is the change of the linear index per iteration: the merged
	// coefficient of the leaf loop's iterator, 0 when the site has no
	// term on it or sits outside any leaf loop.
	Step int64
	// Shift is the change of the linear index per iteration of the
	// strip's Period: the merged coefficient of the period iterator, 0
	// when the site has no term on it or the strip has no Period.
	Shift int64

	// base + Σ coef·iters[depth] over outer is Linear: every
	// dimension's affine index scaled by the extent of the dimensions
	// inside it, terms on one loop merged, the leaf loop's term split
	// off into Step.
	base  int64
	outer []term
}

// term is one lowered index term: coef times the iterator at depth.
type term struct {
	depth int
	coef  int64
}

// node is one lowered body node: a loop holding further loops
// (strip == nil), or a strip. A loop whose body holds only strips is a
// period loop.
type node struct {
	trip   int
	body   []node
	strip  *Strip
	period *Period
}

// lowering is the state of one program's lowering: the next site's
// document-order position, the deepest site nesting seen and the
// strips built with each one's iterator depth, whose iterator slices
// are cut once that depth is known.
type lowering struct {
	pos, depth int
	strips     []*Strip
	depths     []int
}

// body lowers one body; scope holds the enclosing loop variables,
// outermost first. A loop containing no access site is dropped (it
// yields nothing), so every loop sits above some site and the deepest
// site bounds the iterator slice. A loop whose lowered body holds only
// sites becomes one strip; one whose lowered body holds only strips is
// a period loop.
func (lw *lowering) body(nodes []model.Node, scope []string) []node {
	var out []node
	for _, n := range nodes {
		switch n := n.(type) {
		case *model.Loop:
			inner := append(scope, n.Var)
			if isLeaf(n.Body) {
				out = append(out, node{strip: lw.strip(n.Body, inner, n.Trip, true)})
			} else if body := lw.body(n.Body, inner); len(body) > 0 {
				out = append(out, node{trip: n.Trip, body: body, period: period(body, n.Trip, len(scope))})
			}
		case *model.Access:
			out = append(out, node{strip: lw.strip([]model.Node{n}, scope, 1, false)})
		}
	}
	return out
}

// isLeaf reports whether a loop body holds access sites and no loop
// with a site in it (loops without one are dropped, so they do not
// count).
func isLeaf(nodes []model.Node) bool {
	leaf := false
	for _, n := range nodes {
		switch n := n.(type) {
		case *model.Loop:
			if hasSite(n.Body) {
				return false
			}
		case *model.Access:
			leaf = true
		}
	}
	return leaf
}

// hasSite reports whether a body holds an access site at any depth.
func hasSite(nodes []model.Node) bool {
	for _, n := range nodes {
		switch n := n.(type) {
		case *model.Loop:
			if hasSite(n.Body) {
				return true
			}
		case *model.Access:
			return true
		}
	}
	return false
}

// strip lowers the access sites among nodes into one strip under
// scope; leaf says the last scope entry is the strip's own loop, whose
// term becomes the step.
func (lw *lowering) strip(nodes []model.Node, scope []string, trip int, leaf bool) *Strip {
	s := &Strip{Trip: trip, Sites: make([]StripSite, 0, len(nodes)), Leaf: leaf}
	for _, n := range nodes {
		acc, ok := n.(*model.Access)
		if !ok {
			continue
		}
		s.Sites = append(s.Sites, StripSite{Site: acc, Position: lw.pos})
		ss := &s.Sites[len(s.Sites)-1]
		lw.pos++
		stride := int64(1)
		for d := len(acc.Array.Dims) - 1; d >= 0; d-- {
			e := acc.Index[d]
			ss.base += stride * int64(e.Const)
			for _, t := range e.Terms {
				if depth := innermost(scope, t.Var); depth >= 0 {
					ss.addTerm(depth, stride*int64(t.Coef))
				}
			}
			stride *= int64(acc.Array.Dims[d])
		}
		if leaf {
			ss.splitStep(len(scope) - 1)
		}
	}
	if len(scope) > lw.depth {
		lw.depth = len(scope)
	}
	lw.strips = append(lw.strips, s)
	lw.depths = append(lw.depths, len(scope))
	return s
}

// period makes the strips of a lowered loop body, whose iterator sits
// at depth, one Period, or returns nil when the body nests a loop.
func period(body []node, trip, depth int) *Period {
	for _, n := range body {
		if n.strip == nil {
			return nil
		}
	}
	p := &Period{Trip: trip, Strips: make([]*Strip, len(body))}
	for i, n := range body {
		s := n.strip
		p.Strips[i], s.Period = s, p
		for j := range s.Sites {
			ss := &s.Sites[j]
			for _, t := range ss.outer {
				if t.depth == depth {
					ss.Shift = t.coef
				}
			}
		}
	}
	return p
}

func (s *StripSite) addTerm(depth int, coef int64) {
	for i := range s.outer {
		if s.outer[i].depth == depth {
			s.outer[i].coef += coef
			return
		}
	}
	s.outer = append(s.outer, term{depth: depth, coef: coef})
}

// splitStep moves the merged term on the iterator at depth into Step.
func (s *StripSite) splitStep(depth int) {
	for i, t := range s.outer {
		if t.depth == depth {
			s.Step = t.coef
			s.outer = append(s.outer[:i], s.outer[i+1:]...)
			return
		}
	}
}

// innermost returns the depth of the innermost scope entry named v, or
// -1.
func innermost(scope []string, v string) int {
	for j := len(scope) - 1; j >= 0; j-- {
		if scope[j] == v {
			return j
		}
	}
	return -1
}

// walker is the replay state of one walk.
type walker struct {
	block int
	iters []int
	yield func(*Strip) bool
}

// run replays one lowered body at the given loop depth, reporting
// false once the consumer stopped the walk.
func (w *walker) run(nodes []node, depth int) bool {
	for i := range nodes {
		n := &nodes[i]
		if s := n.strip; s != nil {
			for j := range s.Sites {
				ss := &s.Sites[j]
				lin := ss.base
				for _, t := range ss.outer {
					lin += t.coef * int64(w.iters[t.depth])
				}
				ss.Linear = lin
			}
			s.Block = w.block
			if !w.yield(s) {
				return false
			}
			continue
		}
		p := n.period
		for it := 0; it < n.trip; it++ {
			w.iters[depth] = it
			if p != nil {
				p.Iter, p.Skip = it, 0
			}
			if !w.run(n.body, depth+1) {
				return false
			}
			if p != nil && p.Skip > 0 {
				it += min(p.Skip, n.trip-1-it)
			}
		}
	}
	return true
}

// WalkStrips replays the program's dynamic access trace in execution
// order as strips: blocks in sequence, loops iterated 0..Trip-1, body
// nodes in document order, one yield per entry of a leaf loop and per
// execution of a site outside any leaf loop, the iterations of a period
// loop the consumer skips (Period.Skip) left out. Returning false stops the
// walk early (WalkStrips then returns nil — an early stop is the
// consumer's choice, not a failure). The walk is bounded up front: a
// program whose total dynamic access count exceeds the configured
// limit returns an error wrapping ErrLimit before the first yield.
func WalkStrips(p *model.Program, opts Options, yield func(*Strip) bool) error {
	if p == nil {
		return fmt.Errorf("trace: nil program")
	}
	limit := opts.MaxAccesses
	switch {
	case limit < 0:
		return fmt.Errorf("trace: negative access limit %d", limit)
	case limit == 0:
		limit = DefaultMaxAccesses
	}
	if total := p.TotalAccesses(); total > limit {
		return fmt.Errorf("trace: program executes %d accesses, limit is %d: %w", total, limit, ErrLimit)
	}

	var lw lowering
	blocks := make([][]node, len(p.Blocks))
	for bi, b := range p.Blocks {
		blocks[bi] = lw.body(b.Body, nil)
	}
	w := &walker{iters: make([]int, lw.depth), yield: yield}
	for i, s := range lw.strips {
		s.Iters = w.iters[:lw.depths[i]:lw.depths[i]]
	}
	for bi, body := range blocks {
		w.block = bi
		if !w.run(body, 0) {
			break
		}
	}
	return nil
}
