package assign

import (
	"context"
	"math"
	"sync"
	"time"

	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// This file is the portfolio engine: the serving layer's anytime
// answer for programs where exact search blows the request budget. It
// races three members — branch and bound (the budget-restricted exact
// engine), greedy (the fast floor) and the stochastic LNS engine —
// concurrently under one Options.Deadline and returns the best
// incumbent with per-member provenance. With no deadline every member
// runs to completion and the exact member wins every tie, so the
// result is byte-identical to a plain BranchBound search (plus the
// Portfolio provenance) — which is what keeps the engine inside the
// differential harness's determinism story.

// pfMember is one raced engine, in the fixed racing (and tie-break)
// order: the exact member first, so a completed race degenerates to
// plain branch and bound.
type pfMember struct {
	engine Engine
	run    EngineFunc
}

func portfolioMembers() []pfMember {
	return []pfMember{
		{BranchBound, func(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *Result {
			return exactSearch(ctx, ws, plat, opts, true)
		}},
		{Greedy, greedySearch},
		{Stochastic, lnsSearch},
	}
}

// portfolioSearch is the EngineFunc of the Portfolio engine. It
// returns nil only when the parent context is cancelled; an expired
// Deadline instead yields the best member incumbent — or, when the
// deadline was shorter than even the greedy member, the out-of-the-box
// baseline assignment, flagged incomplete, attributed to Portfolio
// itself in the provenance.
func portfolioSearch(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *Result {
	runCtx, cancel := ctx, context.CancelFunc(func() {})
	if opts.Deadline > 0 {
		runCtx, cancel = context.WithTimeout(ctx, opts.Deadline)
	}
	defer cancel()

	members := portfolioMembers()

	// Progress fan-in: member snapshots fold into one running minimum,
	// so the portfolio's reported incumbent score is monotone
	// non-increasing by construction — the property the transport
	// layers (and the property harness) rely on. States is the sum of
	// the members' latest counts. The mutex serializes delivery, so
	// the callback keeps the engines' never-concurrent-with-itself
	// contract.
	var pmu sync.Mutex
	bestSeen := math.Inf(1)
	lastStates := make([]int, len(members))
	forward := func(idx int) ProgressFunc {
		if opts.Progress == nil {
			return nil
		}
		return func(sp Progress) {
			pmu.Lock()
			defer pmu.Unlock()
			lastStates[idx] = sp.States
			if sp.BestScore < bestSeen {
				bestSeen = sp.BestScore
			}
			total := 0
			for _, n := range lastStates {
				total += n
			}
			opts.Progress(Progress{Phase: PhaseAssign, Engine: Portfolio, States: total, Iter: sp.Iter, BestScore: bestSeen})
		}
	}

	results := make([]*Result, len(members))
	elapsed := make([]time.Duration, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m pfMember) {
			defer wg.Done()
			o := opts
			o.Engine = m.engine
			o.Progress = forward(i)
			if m.engine != BranchBound {
				// The warm-start incumbent is an exact-search bound; the
				// heuristic members seed themselves.
				o.Incumbent = nil
			}
			started := time.Now()
			results[i] = m.run(runCtx, ws, plat, o)
			elapsed[i] = time.Since(started)
		}(i, m)
	}
	wg.Wait()

	if ctx.Err() != nil {
		return nil
	}

	// Deterministic merge: a later member displaces an earlier one
	// only by improving beyond the exact engines' tie slack (see
	// pruneSubtree) — member scores come from Assignment.Evaluate,
	// which folds costs in a different order than the search's
	// per-decision tables, so bare < could let ulp noise outvote the
	// proven optimum. With the slack, ties go to the earliest member —
	// branch and bound — and a no-deadline race returns the BnB result
	// itself.
	winner := -1
	winScore := math.Inf(1)
	for i, r := range results {
		if r == nil {
			continue
		}
		score := opts.Objective.Score(r.Cost)
		if winner < 0 || score < winScore-1e-9*(1+math.Abs(winScore)) {
			winner, winScore = i, score
		}
	}

	runs := make([]EngineRun, len(members))
	for i, m := range members {
		runs[i] = EngineRun{Engine: m.engine, Score: math.Inf(1), Elapsed: elapsed[i]}
		if r := results[i]; r != nil {
			runs[i].Score = opts.Objective.Score(r.Cost)
			runs[i].States = r.States
			runs[i].Complete = r.Complete
		}
	}

	if winner < 0 {
		// The deadline expired before any member produced a result.
		// Return the out-of-the-box placement: a valid, honest
		// incumbent with zero search behind it.
		base := NewInWorkspace(ws, plat, opts.Policy)
		base.InPlace = !opts.NoInPlace
		return &Result{
			Assignment: base,
			Cost:       base.Evaluate(EvalOptions{}),
			Complete:   false,
			Engine:     Portfolio,
			Portfolio:  runs,
		}
	}
	runs[winner].Won = true
	res := *results[winner]
	res.Portfolio = runs
	return &res
}
