package assign

import (
	"context"
	"math/rand"
	"slices"
	"time"

	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// This file is the stochastic engine: a seeded large-neighborhood
// search (LNS) over complete assignments. The exact engines blow up
// combinatorially on large decision spaces and greedy gets stuck in
// the first local optimum its move set reaches; LNS starts from the
// greedy assignment, repeatedly destroys a few random decisions and
// re-decides them, keeps strict improvements, and kicks itself out of
// stalled basins with a deterministic diversification acceptance. The
// whole trajectory is a pure function of Options.Seed — no wall-clock
// reads, no map iteration, math/rand with a fixed source — so a fixed
// seed is byte-reproducible at every worker count (the engine is
// sequential and ignores Options.Workers). With Options.Deadline set
// it becomes an anytime engine: iterate until the deadline and return
// the best incumbent, flagged incomplete.
//
// The engine rides entirely on the exact engines' machinery: the
// space decision tables (bnb.go), the allocation-free searchState
// apply/undo (state.go) and the per-decision contribution tables, so
// one evaluated neighbor costs O(decisions) table lookups and no heap
// allocation.

const (
	// lnsIterations is the fixed iteration budget without a deadline —
	// the knob that keeps the no-deadline engine deterministic. Each
	// iteration evaluates one neighbor.
	lnsIterations = 4000
	// lnsStallLimit is the number of consecutive rejected neighbors
	// after which the search accepts the next feasible neighbor
	// regardless of score — the diversification kick that moves the
	// walk out of a local optimum (the global best is tracked
	// separately and never regresses).
	lnsStallLimit = 250
	// lnsMaxDestroy bounds how many decisions one move re-decides.
	lnsMaxDestroy = 3
)

// lnsSearch is the EngineFunc of the Stochastic engine. It returns
// nil only when ctx is cancelled before the greedy seed exists; once
// seeded it is anytime — cancellation or the deadline stops it at the
// next check and the best incumbent so far is returned, flagged
// incomplete.
func lnsSearch(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *Result {
	start := time.Now()
	s := newSpace(ctx, ws, plat, opts, false)
	s.engine = Stochastic

	gopts := opts
	gopts.Progress = nil
	gr := greedySearch(ctx, ws, plat, gopts)
	if gr == nil {
		return nil
	}
	// Replay the greedy assignment onto the decision tables (it always
	// replays: it was built under this platform). With no decisions
	// there is nothing to re-decide, and greedy's result stands.
	levels := s.levels()
	st, cur, ok := s.replay(gr.Assignment)
	if levels == 0 || !ok {
		gr.Engine = Stochastic
		return gr
	}
	curScore := s.foldScore(st, cur)
	best := append([]int(nil), cur...)
	bestScore := curScore

	rng := rand.New(rand.NewSource(opts.Seed))
	// perm is the position-sampling buffer: a partial Fisher-Yates
	// shuffle of its head yields k distinct random positions per move.
	perm := make([]int, levels)
	for i := range perm {
		perm[i] = i
	}
	positions := make([]int, 0, lnsMaxDestroy)
	next := make([]int, 0, lnsMaxDestroy)
	cand := make([]int, levels)

	maxDestroy := lnsMaxDestroy
	if maxDestroy > levels {
		maxDestroy = levels
	}
	states := gr.States
	complete := true
	stall := 0
	for iter := 0; ; iter++ {
		if opts.Deadline > 0 {
			if iter&31 == 0 && time.Since(start) >= opts.Deadline {
				complete = false
				break
			}
		} else if iter >= lnsIterations {
			break
		}
		if iter&63 == 0 && ctx.Err() != nil {
			complete = false
			break
		}

		// Destroy: pick 1..maxDestroy distinct positions, ascending.
		k := 1 + rng.Intn(maxDestroy)
		for j := 0; j < k; j++ {
			o := j + rng.Intn(levels-j)
			perm[j], perm[o] = perm[o], perm[j]
		}
		positions = append(positions[:0], perm[:k]...)
		slices.Sort(positions)
		// Repair: re-decide each position uniformly at random.
		next = next[:0]
		for _, p := range positions {
			next = append(next, rng.Intn(s.optionCount(p)))
		}

		states++
		if !st.swapDecisions(cur, positions, next) {
			stall++
			continue
		}
		copy(cand, cur)
		for i, p := range positions {
			cand[p] = next[i]
		}
		score := s.foldScore(st, cand)
		improvedBest := false
		switch {
		case score < curScore:
			copy(cur, cand)
			curScore, stall = score, 0
			if score < bestScore {
				copy(best, cur)
				bestScore = score
				improvedBest = true
			}
		case stall >= lnsStallLimit:
			// Diversification: take the sideways/uphill step. The
			// incumbent (best) is untouched, so the returned result
			// never regresses below the greedy seed.
			copy(cur, cand)
			curScore, stall = score, 0
		default:
			st.swapDecisions(cand, positions, curSubset(cur, positions, next[:0]))
			stall++
		}
		if opts.Progress != nil && (improvedBest || states&511 == 0) {
			opts.Progress(Progress{Phase: PhaseAssign, Engine: Stochastic, States: states, Iter: iter + 1, BestScore: bestScore})
		}
	}

	// Build the global best from its vector (the walk's current
	// position may sit elsewhere after diversification kicks).
	a := s.assignment(best)
	return &Result{
		Assignment: a,
		Cost:       a.Evaluate(EvalOptions{}),
		States:     states,
		Complete:   complete,
		Engine:     Stochastic,
	}
}

// curSubset fills buf with cur's values at the given positions — the
// "old decisions" argument of the revert swap.
func curSubset(cur, positions, buf []int) []int {
	for _, p := range positions {
		buf = append(buf, cur[p])
	}
	return buf
}

// foldScore folds the complete decision vector's objective score from
// the per-decision contribution tables, in fixed depth order — the
// same fold the exact engines' leaves use, so LNS scores are
// bit-comparable with theirs. The state must currently hold exactly
// the decisions being scored (chain contributions read the applied
// array homes).
func (s *space) foldScore(st *searchState, decisions []int) float64 {
	acc := s.base
	for depth, oi := range decisions {
		acc = acc.plus(st.contribAt(depth, oi))
	}
	return s.opts.Objective.contribScore(acc)
}

// swapDecisions transactionally replaces the decisions at the given
// (ascending) positions: the old decisions are undone, the new ones
// applied in ascending depth order, and the whole-state invariants
// re-checked — capacity via apply's tracker checks, plus the chain/
// home monotonicity of chains *not* being re-decided, which apply
// cannot see when only an array home changes out from under them (the
// DFS engines never hit that case; order guarantees it there). On any
// violation the old decisions are restored and false is returned with
// the state unchanged.
func (st *searchState) swapDecisions(cur, positions, next []int) bool {
	s := st.sp
	for _, p := range positions {
		st.undo(p, cur[p])
	}
	applied := 0
	ok := true
	for i, p := range positions {
		if !st.apply(p, next[i]) {
			ok = false
			break
		}
		applied++
	}
	if ok {
		// Cross-check every decided chain against its array's (possibly
		// re-decided) home; apply checked only the re-decided chains.
		for ci := range s.chains {
			oi := st.chainSel[ci]
			if oi < 0 {
				continue
			}
			if op := &s.chainOpts[ci][oi]; len(op.layers) > 0 && op.layers[0] >= st.homes[s.ws.ChainArrayIdx[ci]] {
				ok = false
				break
			}
		}
	}
	if ok {
		return true
	}
	for i := applied - 1; i >= 0; i-- {
		st.undo(positions[i], next[i])
	}
	for _, p := range positions {
		if !st.apply(p, cur[p]) {
			// Restoring the pre-swap decisions cannot fail: ascending
			// order re-homes arrays before re-checking their chains, and
			// every intermediate occupancy is a subset of the original
			// feasible state's.
			panic("assign: lns revert failed")
		}
	}
	return false
}
