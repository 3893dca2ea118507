package assign

// The clone-per-move greedy engine, kept as the reference oracle of
// the incremental one in greedy.go: every candidate move clones the
// whole assignment, re-checks capacity with a from-scratch Fits and
// rescores the clone from scratch with oracleScore, the exact engines'
// contribution fold. The differential test
// (greedy_differential_test.go) requires the production engine to
// match it decision for decision, bit for bit.

import (
	"context"
	"sort"

	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// oracleMove is one greedy step: either instantiating a copy candidate on a
// layer or re-homing an array.
type oracleMove struct {
	// key orders moves deterministically among equal gains.
	key string
	// bytes is the on-chip space the move consumes (for the
	// gain-per-byte criterion).
	bytes int64
	apply func(a *Assignment)
}

// oracleGreedySearch is the steepest-descent heuristic of the MHLA tool:
// start from the out-of-the-box placement (everything in background
// memory, no copies) and repeatedly apply the feasible move with the
// best gain until no move improves the objective. It returns nil if
// ctx is cancelled before the search converges.
func oracleGreedySearch(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *Result {
	cur := NewInWorkspace(ws, plat, opts.Policy)
	cur.InPlace = !opts.NoInPlace
	curScore := oracleScore(cur, opts.Objective)
	states := 0

	for iter := 0; iter < maxGreedyIters; iter++ {
		var best *Assignment
		var bestScore float64
		bestCrit := 0.0
		bestKey := ""
		for _, mv := range oracleEnumerateMoves(cur) {
			if states&63 == 0 && ctx.Err() != nil {
				return nil
			}
			next := cur.Clone()
			mv.apply(next)
			if !next.Fits() {
				continue
			}
			states++
			score := oracleScore(next, opts.Objective)
			gain := curScore - score
			if gain <= 1e-9 {
				continue
			}
			crit := gain
			if !opts.AbsoluteGain && mv.bytes > 0 {
				crit = gain / float64(mv.bytes)
			}
			if best == nil || crit > bestCrit || (crit == bestCrit && mv.key < bestKey) {
				best, bestScore, bestCrit, bestKey = next, score, crit, mv.key
			}
		}
		if best == nil {
			break
		}
		cur, curScore = best, bestScore
		if opts.Progress != nil {
			opts.Progress(Progress{Phase: PhaseAssign, Engine: Greedy, States: states, Iter: iter + 1, BestScore: curScore})
		}
	}
	return &Result{Assignment: cur, Cost: cur.Evaluate(EvalOptions{}), States: states, Complete: true, Engine: Greedy}
}

// oracleScore folds the assignment's objective score from scratch
// through arrayContrib and chainContrib: the compute cycles, then every
// array's home in workspace order, then every chain's selection in
// analysis order.
func oracleScore(a *Assignment, obj Objective) float64 {
	acc := contrib{cycles: a.ws.TotalCompute}
	for _, arr := range a.ws.Arrays {
		acc = acc.plus(arrayContrib(a.Platform, arr, a.ArrayHome[arr.Name]))
	}
	for _, ch := range a.ws.Chains {
		var levels, layers []int
		if ca := a.Chains[ch.ID]; ca != nil {
			levels, layers = ca.Levels, ca.Layers
		}
		acc = acc.plus(chainContrib(a.Platform, a.Policy, ch, a.ArrayHome[ch.Array.Name], levels, layers))
	}
	return obj.contribScore(acc)
}

// oracleEnumerateMoves lists every structurally valid single move from the
// current assignment in deterministic order. Capacity feasibility is
// checked by the caller (it depends on the whole lifetime profile).
func oracleEnumerateMoves(a *Assignment) []oracleMove {
	var moves []oracleMove
	onChip := a.Platform.OnChipLayers()

	// Copy-candidate instantiations.
	for _, ch := range a.Analysis.Chains {
		ch := ch
		home := a.ArrayHome[ch.Array.Name]
		ca := a.Chains[ch.ID]
		for level := 0; level <= ch.Depth(); level++ {
			// Neighbour layers in the chain for monotonicity.
			parentLayer := home
			childLayer := -1
			selected := false
			if ca != nil {
				for i, lv := range ca.Levels {
					if lv == level {
						selected = true
						break
					}
					if lv < level {
						parentLayer = ca.Layers[i]
					}
					if lv > level {
						childLayer = ca.Layers[i]
						break
					}
				}
			}
			if selected {
				continue
			}
			cand := ch.Candidate(level)
			for _, layer := range onChip {
				if layer >= parentLayer || layer <= childLayer {
					continue
				}
				if cand.Bytes > a.Platform.Layers[layer].Capacity {
					continue
				}
				level, layer := level, layer
				chID := ch.ID
				moves = append(moves, oracleMove{
					key:   "cc/" + ch.ID + oracleKeySuffix(level, layer),
					bytes: cand.Bytes,
					apply: func(a *Assignment) { a.Select(chID, level, layer) },
				})
			}
		}
	}

	// Array re-homing.
	arrays := append([]string(nil), oracleArrayNames(a)...)
	for _, name := range arrays {
		arr := a.Analysis.Program.Array(name)
		cur := a.ArrayHome[name]
		for _, layer := range onChip {
			if layer == cur {
				continue
			}
			if arr.Bytes() > a.Platform.Layers[layer].Capacity {
				continue
			}
			// The first selected copy of each chain must stay closer
			// to the CPU than the home.
			if !oracleHomeCompatible(a, name, layer) {
				continue
			}
			name, layer := name, layer
			moves = append(moves, oracleMove{
				key:   "home/" + name + oracleKeySuffix(0, layer),
				bytes: arr.Bytes(),
				apply: func(a *Assignment) { a.SetHome(name, layer) },
			})
		}
	}
	return moves
}

func oracleKeySuffix(level, layer int) string {
	return "/" + string(rune('0'+level)) + "/" + string(rune('0'+layer))
}

func oracleArrayNames(a *Assignment) []string {
	names := make([]string, 0, len(a.Analysis.Program.Arrays))
	for _, arr := range a.Analysis.Program.Arrays {
		names = append(names, arr.Name)
	}
	sort.Strings(names)
	return names
}

// oracleHomeCompatible reports whether moving the array home to the given
// layer keeps every chain selection monotone.
func oracleHomeCompatible(a *Assignment, array string, home int) bool {
	for _, ch := range a.Analysis.Chains {
		if ch.Array.Name != array {
			continue
		}
		if ca := a.Chains[ch.ID]; ca != nil && len(ca.Layers) > 0 && ca.Layers[0] >= home {
			return false
		}
	}
	return true
}
