// Package trace is the single source of the dynamic access order of a
// program: a streaming iterator over every array access a program's
// loop nests execute, in execution order.
//
// Two simulators replay this trace — the software-managed-copy
// simulator of internal/sim and the hardware cache/prefetch simulator
// of internal/cachesim — and they must never drift on what "the trace"
// means (which accesses run, in which order, under which iterator
// valuation). Factoring the walk here makes that a structural
// guarantee instead of a test obligation: both consume the same Walk.
//
// Walk lowers the program once, up front, into a small tree of loops
// and access sites. Each site carries its document-order position, its
// loop depth and its row-major linear element index as an affine form
// over the depth-indexed iterator values, so the replay itself touches
// no map and evaluates no string-keyed expression. Allocation is
// O(sites + loops) per walk, independent of the trace length: one
// Access value and one iterator slice are reused across yields.
//
// The lowering resolves every index term to the innermost enclosing
// loop of its name and drops terms naming no enclosing loop. That is
// the meaning of a validated program (model.Program.Validate rejects
// shadowed and out-of-scope iterators); Walk serves validated programs
// only. The MaxAccesses guard (against accidentally tracing
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

// ErrLimit is wrapped by Walk's error when the program would execute
// more dynamic accesses than the configured bound; consumers branch on
// it with errors.Is to report "too large", not "broken".
var ErrLimit = errors.New("access limit exceeded")

// Options bound a trace run.
type Options struct {
	// MaxAccesses aborts the walk up front when the program would
	// execute more dynamic accesses than this. 0 means
	// DefaultMaxAccesses.
	MaxAccesses int64
}

// Access is one dynamic array access of the trace. The value passed to
// the yield callback is reused between calls — consumers must copy
// whatever they keep (in particular Iters, the live iterator values).
type Access struct {
	// Site is the static access site executing.
	Site *model.Access
	// Block is the index of the enclosing top-level block.
	Block int
	// Position is the document-order ordinal of the site within the
	// program (model.AccessRef.Position), stable across runs — the
	// per-site key of site-indexed tables.
	Position int
	// Iters holds the live values of the site's enclosing loop
	// iterators, outermost first (Iters[j] belongs to
	// model.AccessRef.Nest[j]).
	Iters []int

	site *site
}

// Linear returns the row-major linear element index of the access
// within its array (outermost dimension first, matching
// model.Array.Dims).
func (a *Access) Linear() int64 {
	idx := a.site.base
	for _, t := range a.site.terms {
		idx += t.coef * int64(a.Iters[t.depth])
	}
	return idx
}

// term is one lowered index term: coef times the iterator at depth.
type term struct {
	depth int
	coef  int64
}

// site is one lowered access site.
type site struct {
	acc   *model.Access
	pos   int
	depth int
	// base + Σ coef·Iters[depth] is the row-major linear element
	// index: every dimension's affine index scaled by the extent of
	// the dimensions inside it, terms on one loop merged.
	base  int64
	terms []term
}

// node is one lowered body node: a loop (site == nil) or an access.
type node struct {
	trip int
	body []node
	site *site
}

// lowering is the state of one program's lowering: the next site's
// document-order position and the deepest site nesting seen.
type lowering struct {
	pos, depth int
}

// body lowers one body; scope holds the enclosing loop variables,
// outermost first. A loop containing no access site is dropped (it
// yields nothing), so every loop sits above some site and the deepest
// site bounds the iterator slice.
func (lw *lowering) body(nodes []model.Node, scope []string) []node {
	var out []node
	for _, n := range nodes {
		switch n := n.(type) {
		case *model.Loop:
			if body := lw.body(n.Body, append(scope, n.Var)); len(body) > 0 {
				out = append(out, node{trip: n.Trip, body: body})
			}
		case *model.Access:
			out = append(out, node{site: lowerSite(n, scope, lw.pos)})
			lw.pos++
			if len(scope) > lw.depth {
				lw.depth = len(scope)
			}
		}
	}
	return out
}

func lowerSite(acc *model.Access, scope []string, pos int) *site {
	s := &site{acc: acc, pos: pos, depth: len(scope)}
	stride := int64(1)
	for d := len(acc.Array.Dims) - 1; d >= 0; d-- {
		e := acc.Index[d]
		s.base += stride * int64(e.Const)
		for _, t := range e.Terms {
			depth := innermost(scope, t.Var)
			if depth < 0 {
				continue
			}
			s.addTerm(depth, stride*int64(t.Coef))
		}
		stride *= int64(acc.Array.Dims[d])
	}
	return s
}

func (s *site) addTerm(depth int, coef int64) {
	for i := range s.terms {
		if s.terms[i].depth == depth {
			s.terms[i].coef += coef
			return
		}
	}
	s.terms = append(s.terms, term{depth: depth, coef: coef})
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

// walker is the replay state of one Walk.
type walker struct {
	acc   Access
	iters []int
	yield func(*Access) bool
}

// run replays one lowered body at the given loop depth, reporting
// false once the consumer stopped the walk.
func (w *walker) run(nodes []node, depth int) bool {
	for i := range nodes {
		n := &nodes[i]
		if s := n.site; s != nil {
			w.acc.Site, w.acc.Position, w.acc.Iters, w.acc.site = s.acc, s.pos, w.iters[:s.depth], s
			if !w.yield(&w.acc) {
				return false
			}
			continue
		}
		for it := 0; it < n.trip; it++ {
			w.iters[depth] = it
			if !w.run(n.body, depth+1) {
				return false
			}
		}
	}
	return true
}

// Walk replays the program's dynamic access trace in execution order:
// blocks in sequence, loops iterated 0..Trip-1, body nodes in
// document order. It calls yield once per dynamic access; returning
// false stops the walk early (Walk then returns nil — an early stop is
// the consumer's choice, not a failure). The walk is bounded up front:
// a program whose total dynamic access count exceeds the configured
// limit returns an error wrapping ErrLimit before the first yield.
func Walk(p *model.Program, opts Options, yield func(*Access) bool) error {
	if p == nil {
		return fmt.Errorf("trace: nil program")
	}
	limit := opts.MaxAccesses
	if limit <= 0 {
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
	for bi, body := range blocks {
		w.acc.Block = bi
		if !w.run(body, 0) {
			break
		}
	}
	return nil
}
