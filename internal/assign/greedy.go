package assign

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"unicode/utf8"

	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/reuse"
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
// against the maintained layer peaks, scored and undone; nothing is
// cloned per move. Only the final position becomes an Assignment.
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
	bg     int
	onChip []int

	occ *Occupancy
	// homes is the home layer of every array (aligned with ws.Arrays).
	homes []int
	// levels and layers are each chain's selection (aligned with
	// ws.Chains): ascending levels, strictly decreasing layers.
	levels, layers [][]int

	// byID lists the chain indices in chain-ID order, the order
	// Evaluate walks the block transfers in; progArrays maps
	// Program.Arrays (Evaluate's initial-fill order) to ws.Arrays
	// indices.
	byID, progArrays []int
	// accessWords[ci*len(plat.Layers)+layer] is the CPU word accesses
	// chain ci performs when it hits layer.
	accessWords []int64
	// xfer holds one L*L block per block-transfer stream (L layers):
	// entry parent*L+layer is the stream's cost with the copy on layer
	// below a parent on layer parent (filled for layer < parent only).
	// The blocks of copy candidate (ci, lv) span
	// xfer[xferAt[levelOff[ci]+lv]:xferAt[levelOff[ci]+lv+1]], in
	// Evaluate's class order; streams with no transfers are left out.
	levelOff, xferAt []int
	xfer             []xferCost

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
	nlayers := len(plat.Layers)
	g := &greedy{
		ctx:         ctx,
		ws:          ws,
		plat:        plat,
		opts:        opts,
		bg:          plat.Background(),
		onChip:      plat.OnChipLayers(),
		occ:         newOccupancy(plat, ws.NBlocks, !opts.NoInPlace),
		homes:       make([]int, len(ws.Arrays)),
		levels:      make([][]int, len(ws.Chains)),
		layers:      make([][]int, len(ws.Chains)),
		byID:        make([]int, len(ws.Chains)),
		progArrays:  make([]int, len(ws.Program.Arrays)),
		accessWords: make([]int64, len(ws.Chains)*nlayers),
	}
	for ai := range ws.Arrays {
		g.homes[ai] = g.bg
		if ws.ArrayUsed[ai] {
			g.occ.Place(g.bg, ws.ArrayObjs[ai])
		}
	}
	depth, classes := 0, 0
	for _, ch := range ws.Chains {
		depth += ch.Depth() + 1
		for _, cand := range ch.Levels {
			classes += len(cand.Classes)
		}
	}
	levelBuf, layerBuf := make([]int, depth), make([]int, depth)
	g.levelOff, g.xferAt = make([]int, len(ws.Chains)), make([]int, 0, depth+1)
	g.xfer = make([]xferCost, 0, classes*nlayers*nlayers)
	off := 0
	for ci, ch := range ws.Chains {
		end := off + ch.Depth() + 1
		g.levels[ci], g.layers[ci] = levelBuf[off:off:end], layerBuf[off:off:end]
		g.levelOff[ci] = off
		off = end
		g.byID[ci] = ci
		n := ch.AccessesPerExecution()
		for layer := range plat.Layers {
			g.accessWords[ci*nlayers+layer] = n * plat.Layers[layer].Words(int64(ch.Array.ElemSize))
		}
		for lv := 0; lv <= ch.Depth(); lv++ {
			g.xferAt = append(g.xferAt, len(g.xfer))
			g.addStreams(ch, lv)
		}
	}
	g.xferAt = append(g.xferAt, len(g.xfer))
	slices.SortFunc(g.byID, func(a, b int) int { return strings.Compare(ws.Chains[a].ID, ws.Chains[b].ID) })
	for i, arr := range ws.Program.Arrays {
		g.progArrays[i] = ws.ArrayIndex[arr.Name]
	}
	return g
}

// xferCost is the cost of one transfer stream between two given
// layers: its transfer count, the energy of one transfer and the
// cycles of all of them.
type xferCost struct {
	count  int64
	energy float64
	cycles int64
}

// addStreams appends the transfer streams of copy candidate (ch, lv)
// to the xfer table.
func (g *greedy) addStreams(ch *reuse.Chain, lv int) {
	plat, nlayers := g.plat, len(g.plat.Layers)
	cand := ch.Candidate(lv)
	for class, uc := range cand.Classes {
		size := cand.UpdateBytes(class, g.opts.Policy)
		if uc.Count == 0 || size == 0 {
			continue
		}
		base := len(g.xfer)
		g.xfer = append(g.xfer, make([]xferCost, nlayers*nlayers)...)
		for parent := range plat.Layers {
			for layer := 0; layer < parent; layer++ {
				src, dst := parent, layer
				if ch.Kind == model.Write {
					src, dst = layer, parent
				}
				g.xfer[base+parent*nlayers+layer] = xferCost{
					count:  uc.Count,
					energy: plat.TransferEnergy(src, dst, size),
					cycles: uc.Count * plat.TransferCycles(src, dst, size),
				}
			}
		}
	}
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
		g.homes[mv.array] = mv.layer
		g.occ.moveArray(g.ws, mv.array, mv.from, mv.layer)
		return
	}
	ci := mv.chain
	g.levels[ci] = slices.Insert(g.levels[ci], mv.pos, mv.level)
	g.layers[ci] = slices.Insert(g.layers[ci], mv.pos, mv.layer)
	g.occ.Place(mv.layer, g.ws.CandObjs[ci][mv.level])
}

func (g *greedy) undo(mv greedyMove) {
	if mv.chain < 0 {
		g.homes[mv.array] = mv.from
		g.occ.moveArray(g.ws, mv.array, mv.layer, mv.from)
		return
	}
	ci := mv.chain
	g.levels[ci] = slices.Delete(g.levels[ci], mv.pos, mv.pos+1)
	g.layers[ci] = slices.Delete(g.layers[ci], mv.pos, mv.pos+1)
	g.occ.Unplace(mv.layer, g.ws.CandObjs[ci][mv.level])
}

// score returns the objective score of the current position,
// bit-identical to Objective.Score of Evaluate on the assignment built
// from it. It adds in Evaluate's exact order and with its
// expressions — CPU accesses over the chains in analysis order, block
// transfers over the selected chains in chain-ID order, then levels,
// then classes, initial fills over Program.Arrays — because the float
// energy sum is not associative: per-decision subtotals (the exact
// engines' contribution tables) could round differently, and the gain
// threshold and the crit tie-break read those bits. Cycles are
// integers and add in any order. With no time extensions nothing is
// hidden, so Evaluate's DMA contention term is zero.
func (g *greedy) score() float64 {
	ws, plat, nlayers := g.ws, g.plat, len(g.plat.Layers)
	cycles := ws.TotalCompute
	var access, transfer, init float64
	for ci, ch := range ws.Chains {
		layer := g.homes[ws.ChainArrayIdx[ci]]
		if sel := g.layers[ci]; len(sel) > 0 {
			layer = sel[len(sel)-1]
		}
		nw := g.accessWords[ci*nlayers+layer]
		isWrite := ch.Kind == model.Write
		cycles += nw * plat.AccessCycles(layer, isWrite)
		access += float64(nw) * plat.AccessEnergy(layer, isWrite)
	}
	for _, ci := range g.byID {
		parent := g.homes[ws.ChainArrayIdx[ci]]
		for i, lv := range g.levels[ci] {
			layer := g.layers[ci][i]
			pair := parent*nlayers + layer
			at := g.levelOff[ci] + lv
			for k := g.xferAt[at] + pair; k < g.xferAt[at+1]; k += nlayers * nlayers {
				x := &g.xfer[k]
				cycles += x.cycles
				transfer += float64(x.count) * x.energy
			}
			parent = layer
		}
	}
	for _, ai := range g.progArrays {
		arr, home := ws.Arrays[ai], g.homes[ai]
		if home == g.bg {
			continue
		}
		if arr.Input {
			cycles += plat.TransferCycles(g.bg, home, arr.Bytes())
			init += plat.TransferEnergy(g.bg, home, arr.Bytes())
		}
		if arr.Output {
			cycles += plat.TransferCycles(home, g.bg, arr.Bytes())
			init += plat.TransferEnergy(home, g.bg, arr.Bytes())
		}
	}
	return g.opts.Objective.Score(Cost{Cycles: cycles, Energy: access + transfer + init})
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
