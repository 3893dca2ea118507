package assign

import (
	"bytes"
	"context"
	"slices"
	"unicode/utf8"

	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// maxGreedyIters caps greedy iterations: a safety net, as the search
// terminates on its own because cost strictly decreases.
const maxGreedyIters = 10_000

// greedySearch is the steepest-descent heuristic of the MHLA tool:
// start from the out-of-the-box placement (everything in background
// memory, no copies) and repeatedly apply the feasible move with the
// best gain until no move improves the objective. It returns nil if
// ctx is cancelled before the search converges.
//
// Every candidate move is applied to one mutable position, checked
// against the maintained layer peaks, scored from the exact engines'
// per-decision contributions and undone; nothing is cloned per move.
// Only the final position becomes an Assignment.
func greedySearch(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *Result {
	g := newGreedy(ctx, ws, plat, opts)
	g.curScore = g.score()
	for iter := 0; iter < maxGreedyIters; iter++ {
		g.found = false
		if !g.scan() {
			return nil
		}
		if !g.found {
			break
		}
		g.apply(g.best)
		g.curScore = g.bestScore
		if opts.Progress != nil {
			opts.Progress(Progress{Phase: PhaseAssign, Engine: Greedy, States: g.states, Iter: iter + 1, BestScore: g.curScore})
		}
	}
	a := g.assignment()
	return &Result{Assignment: a, Cost: a.Evaluate(EvalOptions{}), States: g.states, Complete: true, Engine: Greedy}
}

// greedyMove is one greedy step: copy candidate (chain, level)
// instantiated on layer, inserted at index pos of the chain's
// selection, or — when chain is -1 — array re-homed from layer from to
// layer.
type greedyMove struct {
	chain, level, pos int
	array, from       int
	layer             int
	// bytes is the on-chip space the move consumes (for the
	// gain-per-byte criterion).
	bytes int64
}

// greedy is the mutable position of the greedy search plus the best
// move of the running iteration.
type greedy struct {
	ctx    context.Context
	ws     *workspace.Workspace
	plat   *platform.Platform
	opts   Options
	onChip []int

	occ *Occupancy
	// homes is the home layer of every array (aligned with ws.Arrays).
	homes []int
	// levels and layers are each chain's selection (aligned with
	// ws.Chains): ascending levels, strictly decreasing layers.
	levels, layers [][]int
	// arrayC and chainC are the exact engines' cost contributions
	// (arrayContrib, chainContrib) of every array's home and every
	// chain's selection at the current position; apply and undo
	// refresh the entries a move touches.
	arrayC, chainC []contrib

	states    int
	curScore  float64
	found     bool
	best      greedyMove
	bestScore float64
	bestCrit  float64
	// keyA and keyB are reused buffers for rendering tie-break keys.
	keyA, keyB []byte
}

func newGreedy(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *greedy {
	g := &greedy{
		ctx:    ctx,
		ws:     ws,
		plat:   plat,
		opts:   opts,
		onChip: plat.OnChipLayers(),
		occ:    newOccupancy(plat, ws.NBlocks, !opts.NoInPlace),
		homes:  make([]int, len(ws.Arrays)),
		levels: make([][]int, len(ws.Chains)),
		layers: make([][]int, len(ws.Chains)),
		arrayC: make([]contrib, len(ws.Arrays)),
		chainC: make([]contrib, len(ws.Chains)),
	}
	// Every array starts on the background layer, whose arrayContrib
	// is zero, so arrayC starts zeroed.
	bg := plat.Background()
	for ai := range ws.Arrays {
		g.homes[ai] = bg
		if ws.ArrayUsed[ai] {
			g.occ.Place(bg, ws.ArrayObjs[ai])
		}
	}
	depth := 0
	for _, ch := range ws.Chains {
		depth += ch.Depth() + 1
	}
	levelBuf, layerBuf := make([]int, depth), make([]int, depth)
	off := 0
	for ci, ch := range ws.Chains {
		end := off + ch.Depth() + 1
		g.levels[ci], g.layers[ci] = levelBuf[off:off:end], layerBuf[off:off:end]
		off = end
		g.refreshChain(ci)
	}
	return g
}

// scan tries every structurally valid single move from the current
// position, in the fixed order of the MHLA tool — copy candidates by
// chain (analysis order), level and layer, then array re-homes by
// array name and layer — and records the best one. It returns false
// when ctx is cancelled.
func (g *greedy) scan() bool {
	ws, plat := g.ws, g.plat
	for ci, ch := range ws.Chains {
		for level := 0; level <= ch.Depth(); level++ {
			// Neighbour layers in the chain for monotonicity.
			parent, child, pos := g.homes[ws.ChainArrayIdx[ci]], -1, len(g.levels[ci])
			selected := false
			for i, lv := range g.levels[ci] {
				if lv == level {
					selected = true
					break
				}
				if lv < level {
					parent = g.layers[ci][i]
				}
				if lv > level {
					child, pos = g.layers[ci][i], i
					break
				}
			}
			if selected {
				continue
			}
			size := ch.Candidate(level).Bytes
			for _, layer := range g.onChip {
				if layer >= parent || layer <= child || size > plat.Layers[layer].Capacity {
					continue
				}
				if !g.try(greedyMove{chain: ci, level: level, pos: pos, layer: layer, bytes: size}) {
					return false
				}
			}
		}
	}
	for ai, arr := range ws.Arrays {
		// The home must stay farther from the CPU than every chain's
		// first selected copy.
		outer := -1
		for ci, a := range ws.ChainArrayIdx {
			if a == ai && len(g.layers[ci]) > 0 {
				outer = max(outer, g.layers[ci][0])
			}
		}
		from := g.homes[ai]
		for _, layer := range g.onChip {
			if layer == from || layer <= outer || arr.Bytes() > plat.Layers[layer].Capacity {
				continue
			}
			if !g.try(greedyMove{chain: -1, array: ai, from: from, layer: layer, bytes: arr.Bytes()}) {
				return false
			}
		}
	}
	return true
}

// try applies one move, scores it when the position still fits, undoes
// it and keeps it as the iteration's best when it improves the most
// (ties broken by move key). It polls ctx whenever the evaluated-state
// count is a multiple of 64 and returns false once it is cancelled.
func (g *greedy) try(mv greedyMove) bool {
	if g.states&63 == 0 && g.ctx.Err() != nil {
		return false
	}
	g.apply(mv)
	if !g.occ.Fits() {
		g.undo(mv)
		return true
	}
	g.states++
	score := g.score()
	g.undo(mv)
	gain := g.curScore - score
	if gain <= 1e-9 {
		return true
	}
	crit := gain
	if !g.opts.AbsoluteGain && mv.bytes > 0 {
		crit = gain / float64(mv.bytes)
	}
	if !g.found || crit > g.bestCrit || (crit == g.bestCrit && g.keyLess(mv, g.best)) {
		g.found, g.best, g.bestScore, g.bestCrit = true, mv, score, crit
	}
	return true
}

// apply takes a move; undo reverts it.
func (g *greedy) apply(mv greedyMove) {
	if mv.chain < 0 {
		g.rehome(mv.array, mv.from, mv.layer)
		return
	}
	ci := mv.chain
	g.levels[ci] = slices.Insert(g.levels[ci], mv.pos, mv.level)
	g.layers[ci] = slices.Insert(g.layers[ci], mv.pos, mv.layer)
	g.occ.Place(mv.layer, g.ws.CandObjs[ci][mv.level])
	g.refreshChain(ci)
}

func (g *greedy) undo(mv greedyMove) {
	if mv.chain < 0 {
		g.rehome(mv.array, mv.layer, mv.from)
		return
	}
	ci := mv.chain
	g.levels[ci] = slices.Delete(g.levels[ci], mv.pos, mv.pos+1)
	g.layers[ci] = slices.Delete(g.layers[ci], mv.pos, mv.pos+1)
	g.occ.Unplace(mv.layer, g.ws.CandObjs[ci][mv.level])
	g.refreshChain(ci)
}

// rehome moves array ai's home between layers and refreshes the
// contributions of the array and of its chains, which read the home.
func (g *greedy) rehome(ai, from, to int) {
	g.homes[ai] = to
	g.occ.moveArray(g.ws, ai, from, to)
	g.arrayC[ai] = arrayContrib(g.plat, g.ws.Arrays[ai], to)
	for ci, a := range g.ws.ChainArrayIdx {
		if a == ai {
			g.refreshChain(ci)
		}
	}
}

// refreshChain recomputes chain ci's contribution for its current
// home and selection.
func (g *greedy) refreshChain(ci int) {
	home := g.homes[g.ws.ChainArrayIdx[ci]]
	g.chainC[ci] = chainContrib(g.plat, g.opts.Policy, g.ws.Chains[ci], home, g.levels[ci], g.layers[ci])
}

// score returns the objective score of the current position, folded
// from the cached contributions exactly as space.foldScore folds a
// decision vector: the compute cycles, then the arrays in ws.Arrays
// order, then the chains in analysis order. The greedy's scores are
// therefore bit-identical to branch and bound's folded seed score and
// leaf scores; they can differ from Objective.Score of Evaluate by a
// few ulps, because the float energy sum is re-associated.
func (g *greedy) score() float64 {
	acc := contrib{cycles: g.ws.TotalCompute}
	for _, c := range g.arrayC {
		acc = acc.plus(c)
	}
	for _, c := range g.chainC {
		acc = acc.plus(c)
	}
	return g.opts.Objective.contribScore(acc)
}

// keyLess reports whether move a's tie-break key sorts before move
// b's. The keys are "cc/<chain>/<level>/<layer>" and
// "home/<array>/0/<layer>", each index rendered as the rune '0'+n;
// they are rendered into reused buffers only when two moves tie.
func (g *greedy) keyLess(a, b greedyMove) bool {
	g.keyA = g.appendKey(g.keyA[:0], a)
	g.keyB = g.appendKey(g.keyB[:0], b)
	return bytes.Compare(g.keyA, g.keyB) < 0
}

func (g *greedy) appendKey(dst []byte, mv greedyMove) []byte {
	if mv.chain >= 0 {
		dst = append(dst, "cc/"...)
		dst = append(dst, g.ws.Chains[mv.chain].ID...)
	} else {
		dst = append(dst, "home/"...)
		dst = append(dst, g.ws.Arrays[mv.array].Name...)
	}
	dst = append(dst, '/')
	dst = utf8.AppendRune(dst, rune('0'+mv.level))
	dst = append(dst, '/')
	return utf8.AppendRune(dst, rune('0'+mv.layer))
}

// assignment builds the Assignment of the current position.
func (g *greedy) assignment() *Assignment {
	a := NewInWorkspace(g.ws, g.plat, g.opts.Policy)
	a.InPlace = !g.opts.NoInPlace
	for ai, arr := range g.ws.Arrays {
		a.ArrayHome[arr.Name] = g.homes[ai]
	}
	for ci, ch := range g.ws.Chains {
		if len(g.levels[ci]) > 0 {
			a.Chains[ch.ID] = &ChainAssign{Chain: ch, Levels: slices.Clone(g.levels[ci]), Layers: slices.Clone(g.layers[ci])}
		}
	}
	return a
}
