// Package sim provides an element-level, trace-driven memory
// hierarchy simulator used to cross-validate the analytical models of
// internal/reuse and internal/assign.
//
// The simulator replays the strips of internal/trace access by access,
// maintaining every selected copy as a software-managed buffer whose
// bounding box follows the fixed loop iterators, exactly as the
// generated data-transfer code of the MHLA tool would. It counts CPU
// word accesses per layer and transferred bytes per block-transfer
// stream, then prices them with the same platform cost model. On any
// program where it is feasible to run (the full iteration space is
// walked), its counts must agree exactly with the closed-form
// evaluation — a property the test suites of this package and of
// internal/core assert.
//
// The simulator is deliberately independent: it lowers each copy's
// footprint from the access expressions itself instead of reusing the
// reuse package's candidate geometry.
package sim

import (
	"fmt"
	"slices"

	"mhla/internal/assign"
	"mhla/internal/model"
	"mhla/internal/reuse"
	"mhla/internal/trace"
)

// Options bound a trace run.
type Options struct {
	// MaxAccesses aborts the trace when the program would execute
	// more dynamic accesses than this (a guard against accidentally
	// tracing paper-scale workloads; enforced by the shared iterator
	// of internal/trace). 0 means trace.DefaultMaxAccesses; a negative
	// value is an error.
	MaxAccesses int64
}

// Result holds the counted events of a trace run.
type Result struct {
	// LayerAccesses counts CPU word accesses per layer.
	LayerAccesses []int64
	// TransferBytes accumulates transferred bytes per stream.
	TransferBytes map[assign.StreamKey]int64
	// TransferCount counts transfers per stream.
	TransferCount map[assign.StreamKey]int64
	// Energy is the total priced energy (accesses + transfers + array
	// home fills/write-backs) in pJ.
	Energy float64
}

// copyState tracks one live software-managed copy during the walk.
type copyState struct {
	chain  *reuse.Chain
	level  int
	layer  int
	parent int
	// prefix is the last seen value of the fixed iterators
	// (nest[0:level]); valid is false before the first update.
	prefix []int
	valid  bool
	// box is the current footprint and next the buffer the following
	// update fills; dims[d] holds every access's extent along
	// dimension d.
	box, next box
	dims      [][]extent
}

// extent is one access's index range along one dimension of a copy,
// lowered when the copy is created: [lo, hi] shifted by
// Σ coef·iters[depth] over fixed, the terms on the loops above the
// copy level, with the sweep of the loops below it folded into lo and
// hi.
type extent struct {
	lo, hi int
	fixed  []term
}

// term is one index term on a fixed loop: coef times the iterator at
// depth.
type term struct{ depth, coef int }

// site is the per-access-site table entry of a trace run.
type site struct {
	// copies are the live copies of the site's chain, outermost first.
	copies []*copyState
	// layer is the layer CPU accesses of the site hit; words the
	// word-weighted access count and energy its priced energy.
	layer  int
	words  int64
	energy float64
}

// box is an inclusive integer hyper-rectangle.
type box struct{ lo, hi []int }

func newBox(rank int) box { return box{lo: make([]int, rank), hi: make([]int, rank)} }

func (b box) volume() int64 {
	v := int64(1)
	for d := range b.lo {
		v *= int64(b.hi[d] - b.lo[d] + 1)
	}
	return v
}

func (b box) intersectVolume(o box) int64 {
	v := int64(1)
	for d := range b.lo {
		lo, hi := b.lo[d], b.hi[d]
		if o.lo[d] > lo {
			lo = o.lo[d]
		}
		if o.hi[d] < hi {
			hi = o.hi[d]
		}
		if hi < lo {
			return 0
		}
		v *= int64(hi - lo + 1)
	}
	return v
}

// Trace interprets the program under the given assignment and returns
// the counted events. The dynamic access order comes from the shared
// streaming iterator of internal/trace — the same walk the hardware
// cache simulator (internal/cachesim) replays — so the two simulators
// cannot drift on trace semantics.
func Trace(a *assign.Assignment, opts Options) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	p := a.Analysis.Program

	res := &Result{
		LayerAccesses: make([]int64, len(a.Platform.Layers)),
		TransferBytes: make(map[assign.StreamKey]int64),
		TransferCount: make(map[assign.StreamKey]int64),
	}

	// Instantiate the copies of every block up front (Selections order
	// within a chain decides the parent chaining).
	blockCopies := make([][]*copyState, len(p.Blocks))
	chainCopies := make(map[*reuse.Chain][]*copyState)
	for _, sel := range a.Selections() {
		bi := sel.Chain.BlockIndex
		parent := a.ArrayHome[sel.Chain.Array.Name]
		if prev := chainCopies[sel.Chain]; len(prev) > 0 {
			parent = prev[len(prev)-1].layer
		}
		cs := newCopy(sel.Chain, sel.Level, sel.Layer, parent)
		blockCopies[bi] = append(blockCopies[bi], cs)
		chainCopies[sel.Chain] = append(chainCopies[sel.Chain], cs)
	}

	// Per-site table, indexed by the trace's document-order Position:
	// the site's chain copies and its priced CPU access.
	sites := make([]site, len(p.Accesses()))
	for _, ch := range a.Analysis.Chains {
		layer := a.AccessLayer(ch)
		words := a.Platform.Layers[layer].Words(int64(ch.Array.ElemSize))
		for _, ref := range ch.Accesses {
			sites[ref.Position] = site{
				copies: chainCopies[ch],
				layer:  layer,
				words:  words,
				energy: float64(words) * a.Platform.AccessEnergy(layer, ref.Access.Kind == model.Write),
			}
		}
	}

	// Drain write copies at block end (the final write-back,
	// attributed to the fill class like the analytical model).
	drain := func(bi int) {
		for _, cs := range blockCopies[bi] {
			if cs.chain.Kind == model.Write && cs.valid {
				cs.transfer(a, res, 0, cs.box.volume())
			}
		}
	}

	// iters is a strip's Iters with the leaf loop's own iterator set;
	// the strip's Iters belong to the walk.
	var iters []int
	cur := 0
	err := trace.WalkStrips(p, trace.Options{MaxAccesses: opts.MaxAccesses}, func(st *trace.Strip) bool {
		for cur < st.Block {
			drain(cur)
			cur++
		}
		iters = append(iters[:0], st.Iters...)
		for it := 0; it < st.Trip; it++ {
			if st.Leaf {
				iters[len(iters)-1] = it
			}
			for j := range st.Sites {
				s := &sites[st.Sites[j].Position]
				for _, cs := range s.copies {
					cs.sync(a, iters, res)
				}
				res.LayerAccesses[s.layer] += s.words
				res.Energy += s.energy
			}
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	for cur < len(p.Blocks) {
		drain(cur)
		cur++
	}

	// Price the array home fills/write-backs the same way the
	// evaluator does (they are not observable from the access trace).
	bg := a.Platform.Background()
	for _, arr := range p.Arrays {
		home := a.ArrayHome[arr.Name]
		if home == bg {
			continue
		}
		if arr.Input {
			res.Energy += a.Platform.TransferEnergy(bg, home, arr.Bytes())
		}
		if arr.Output {
			res.Energy += a.Platform.TransferEnergy(home, bg, arr.Bytes())
		}
	}
	return res, nil
}

// newCopy creates a copy of the chain at the given level, lowering its
// footprint: every index term is resolved to its loop of the chain's
// nest once, here, instead of on each update.
func newCopy(ch *reuse.Chain, level, layer, parent int) *copyState {
	rank := ch.Array.Rank()
	cs := &copyState{
		chain:  ch,
		level:  level,
		layer:  layer,
		parent: parent,
		prefix: make([]int, level),
		box:    newBox(rank),
		next:   newBox(rank),
		dims:   make([][]extent, rank),
	}
	for d := range cs.dims {
		cs.dims[d] = make([]extent, len(ch.Accesses))
		for k, ref := range ch.Accesses {
			e := ref.Access.Index[d]
			x := &cs.dims[d][k]
			x.lo, x.hi = e.Const, e.Const
			for _, t := range e.Terms {
				j := slices.IndexFunc(ch.Nest, func(l *model.Loop) bool { return l.Var == t.Var })
				switch {
				case j < 0: // no loop of the nest: constant
				case j < level:
					x.fixed = append(x.fixed, term{depth: j, coef: t.Coef})
				default:
					if span := t.Coef * (ch.Nest[j].Trip - 1); span >= 0 {
						x.hi += span
					} else {
						x.lo += span
					}
				}
			}
		}
	}
	return cs
}

// sync brings the copy up to date with the current iterator values
// (iters[j] belongs to the chain's Nest[j]: every site of a chain sits
// in exactly the chain's nest), counting any resulting transfer.
func (cs *copyState) sync(a *assign.Assignment, iters []int, res *Result) {
	// Current fixed prefix.
	changed := -1 // outermost changed loop, -1 = no change
	if !cs.valid {
		changed = -2 // first fill
	}
	for j := 0; j < cs.level; j++ {
		v := iters[j]
		if cs.valid && cs.prefix[j] != v && changed == -1 {
			changed = j
		}
		cs.prefix[j] = v
	}
	if changed == -1 {
		return
	}
	cs.fill(iters)
	var moved int64
	var class int
	if changed == -2 {
		moved = cs.next.volume()
		class = 0
	} else {
		moved = cs.next.volume() - cs.next.intersectVolume(cs.box)
		class = changed + 1
	}
	if a.Policy == reuse.Refetch {
		moved = cs.next.volume()
	}
	cs.box, cs.next = cs.next, cs.box
	cs.valid = true
	// Write copies drain the outgoing region; the volume equals the
	// incoming one (the boxes are translates). The very first update
	// has nothing to drain yet.
	if moved == 0 || cs.chain.Kind == model.Write && changed == -2 {
		return
	}
	cs.transfer(a, res, class, moved)
}

// fill computes into next the bounding box of the chain's access group
// for the current fixed prefix, sweeping the loops below the copy
// level.
func (cs *copyState) fill(iters []int) {
	for d, exts := range cs.dims {
		for k := range exts {
			x := &exts[k]
			off := 0
			for _, t := range x.fixed {
				off += t.coef * iters[t.depth]
			}
			if lo := x.lo + off; k == 0 || lo < cs.next.lo[d] {
				cs.next.lo[d] = lo
			}
			if hi := x.hi + off; k == 0 || hi > cs.next.hi[d] {
				cs.next.hi[d] = hi
			}
		}
	}
}

// transfer records one block transfer of the given element volume;
// class 0 is the fill, class 1+j belongs to incrementing loop j.
func (cs *copyState) transfer(a *assign.Assignment, res *Result, class int, elems int64) {
	bytes := elems * int64(cs.chain.Array.ElemSize)
	key := assign.StreamKey{Chain: cs.chain.ID, Level: cs.level, Class: class}
	res.TransferBytes[key] += bytes
	res.TransferCount[key]++
	src, dst := cs.parent, cs.layer
	if cs.chain.Kind == model.Write {
		src, dst = cs.layer, cs.parent
	}
	res.Energy += a.Platform.TransferEnergy(src, dst, bytes)
}
