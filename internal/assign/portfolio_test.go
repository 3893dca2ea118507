package assign_test

// Property tests of the portfolio and LNS anytime engines. They are
// named TestDifferential* so CI's race-harness step exercises the
// member race and the progress fan-in under -race.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"mhla/internal/assign"
	"mhla/internal/reuse"
	"mhla/internal/workspace"
)

// portfolioSeeds is the scenario count of the portfolio property
// sweeps — smaller than diffSeeds because every scenario races three
// engines at four worker counts.
const portfolioSeeds = 24

// TestDifferentialPortfolioMatchesBnB: with no deadline every member
// runs to completion and the exact member wins every tie, so the
// portfolio result must equal a plain branch-and-bound search —
// same assignment, cost, state count, completeness, baseline and
// winning-engine label — at every worker count, with the provenance
// attached on top.
func TestDifferentialPortfolioMatchesBnB(t *testing.T) {
	for seed := int64(0); seed < portfolioSeeds; seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			bb := searchScenario(t, sc, assign.BranchBound, 1)
			for _, w := range []int{1, 2, 4, 8} {
				pf := searchScenario(t, sc, assign.Portfolio, w)
				ref := searchScenario(t, sc, assign.BranchBound, w)
				if !reflect.DeepEqual(pf.Cost, ref.Cost) ||
					pf.States != ref.States ||
					pf.Complete != ref.Complete ||
					pf.Engine != assign.BranchBound ||
					!reflect.DeepEqual(pf.Baseline, ref.Baseline) ||
					!assignmentsEqual(pf.Assignment, ref.Assignment) {
					t.Errorf("workers=%d portfolio != bnb:\n%+v engine=%v states=%d\nvs\n%+v states=%d",
						w, pf.Cost, pf.Engine, pf.States, ref.Cost, ref.States)
				}
				// And the worker count must not leak into the result.
				if !reflect.DeepEqual(ref.Cost, bb.Cost) || !assignmentsEqual(ref.Assignment, bb.Assignment) {
					t.Errorf("workers=%d bnb reference differs from workers=1", w)
				}
				if len(pf.Portfolio) != 3 {
					t.Fatalf("portfolio provenance has %d members, want 3: %+v", len(pf.Portfolio), pf.Portfolio)
				}
				wantOrder := []assign.Engine{assign.BranchBound, assign.Greedy, assign.Stochastic}
				for i, run := range pf.Portfolio {
					if run.Engine != wantOrder[i] {
						t.Errorf("provenance[%d].Engine = %v, want %v", i, run.Engine, wantOrder[i])
					}
					if run.Won != (i == 0) {
						t.Errorf("provenance[%d].Won = %v (bnb must win every completed race)", i, run.Won)
					}
					if !run.Complete {
						t.Errorf("provenance[%d] (%v) incomplete without a deadline", i, run.Engine)
					}
					if math.IsInf(run.Score, 0) || run.States <= 0 {
						t.Errorf("provenance[%d] (%v) missing score/states: %+v", i, run.Engine, run)
					}
				}
			}
		})
	}
}

// TestDifferentialPortfolioProgressMonotone: the portfolio's reported
// incumbent score must be monotone non-increasing over the progress
// sequence — the fan-in folds member snapshots into a running
// minimum, whatever order the race delivers them in.
func TestDifferentialPortfolioProgressMonotone(t *testing.T) {
	for seed := int64(0); seed < portfolioSeeds; seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			an, err := reuse.Analyze(sc.Program)
			if err != nil {
				t.Fatal(err)
			}
			opts := sc.Options
			opts.Engine = assign.Portfolio
			opts.Workers = 4
			opts.Seed = sc.Seed
			var scores []float64
			var states []int
			// The fan-in serializes delivery, so plain appends are safe
			// (the race detector checks this claim).
			opts.Progress = func(p assign.Progress) {
				if p.Engine != assign.Portfolio {
					t.Errorf("progress labelled %v, want portfolio", p.Engine)
				}
				scores = append(scores, p.BestScore)
				states = append(states, p.States)
			}
			res, err := assign.Search(context.Background(), workspace.FromAnalysis(an), sc.Platform, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(scores); i++ {
				if scores[i] > scores[i-1] {
					t.Fatalf("incumbent score regressed at snapshot %d: %v -> %v", i, scores[i-1], scores[i])
				}
			}
			if len(scores) > 0 {
				final := opts.Objective.Score(res.Cost)
				if final > scores[len(scores)-1]+1e-9*math.Max(1, math.Abs(final)) {
					t.Errorf("final score %v worse than last reported incumbent %v", final, scores[len(scores)-1])
				}
			}
		})
	}
}

// TestDifferentialPortfolioDeadline: under a deadline the portfolio
// must still return a valid, provenance-carrying result — never nil,
// never an error — whatever the deadline cuts off. A generous
// deadline on a tractable scenario completes and equals the exact
// optimum.
func TestDifferentialPortfolioDeadline(t *testing.T) {
	sc := diffConfig.Generate(7)
	an, err := reuse.Analyze(sc.Program)
	if err != nil {
		t.Fatal(err)
	}
	// The LNS member iterates until the deadline by design, so each
	// deadline below is wall-clock the test pays in full.
	for _, deadline := range []time.Duration{time.Nanosecond, time.Millisecond, 100 * time.Millisecond} {
		opts := sc.Options
		opts.Engine = assign.Portfolio
		opts.Seed = sc.Seed
		opts.Deadline = deadline
		res, err := assign.Search(context.Background(), workspace.FromAnalysis(an), sc.Platform, opts)
		if err != nil {
			t.Fatalf("deadline %v: %v", deadline, err)
		}
		if res.Assignment == nil || res.Assignment.Validate() != nil || !res.Assignment.Fits() {
			t.Fatalf("deadline %v: invalid result", deadline)
		}
		if len(res.Portfolio) == 0 {
			t.Errorf("deadline %v: no provenance", deadline)
		}
		obj := opts.Objective
		if s, b := obj.Score(res.Cost), obj.Score(res.Baseline); s > b+1e-9*math.Max(1, math.Abs(b)) {
			t.Errorf("deadline %v: score %v worse than the baseline %v", deadline, s, b)
		}
	}
	// A generous deadline lets the exact member complete (it needs
	// milliseconds on diffConfig scenarios); the race must then return
	// the proven optimum.
	opts := sc.Options
	opts.Engine = assign.Portfolio
	opts.Seed = sc.Seed
	opts.Deadline = time.Second
	res, err := assign.Search(context.Background(), workspace.FromAnalysis(an), sc.Platform, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex := searchScenario(t, sc, assign.Exhaustive, 4)
	if !res.Complete || !reflect.DeepEqual(res.Cost, ex.Cost) {
		t.Errorf("generous deadline did not reach the optimum: %+v vs %+v (complete=%v)",
			res.Cost, ex.Cost, res.Complete)
	}
}

// TestDifferentialLNSAnytime: with a deadline the LNS engine returns
// its best incumbent flagged incomplete instead of nil — an expired
// deadline right after seeding yields exactly the greedy seed's
// score — and cancellation after seeding still returns an incumbent.
func TestDifferentialLNSAnytime(t *testing.T) {
	sc := diffConfig.Generate(11)
	an, err := reuse.Analyze(sc.Program)
	if err != nil {
		t.Fatal(err)
	}
	opts := sc.Options
	opts.Engine = assign.Stochastic
	opts.Seed = sc.Seed
	opts.Deadline = time.Nanosecond
	res, err := assign.Search(context.Background(), workspace.FromAnalysis(an), sc.Platform, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("nanosecond-deadline LNS flagged complete")
	}
	gr := searchScenario(t, sc, assign.Greedy, 1)
	obj := opts.Objective
	if !reflect.DeepEqual(res.Cost, gr.Cost) {
		t.Errorf("expired-at-seed LNS cost %+v != greedy seed cost %+v", res.Cost, gr.Cost)
	}
	if s, g := obj.Score(res.Cost), obj.Score(gr.Cost); s > g+1e-9*math.Max(1, math.Abs(g)) {
		t.Errorf("anytime LNS score %v below its greedy seed %v", s, g)
	}

	// A pre-cancelled context (no incumbent yet): nil result surfaces
	// as ctx.Err from the facade layer.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Deadline = 0
	if _, err := assign.Search(cancelled, workspace.FromAnalysis(an), sc.Platform, opts); err == nil {
		t.Error("pre-cancelled LNS search succeeded")
	}
}
