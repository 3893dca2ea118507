package assign_test

// The cross-engine differential harness: for hundreds of seeded
// progen scenarios it asserts the algebraic relations between the
// registered search engines —
//
//   - the parallel branch-and-bound Result is byte-identical to the
//     single-worker run at every worker count,
//   - branch and bound finds exactly the exhaustive engine's optimum
//     (same assignment, same cost, never more states),
//   - every engine in the registry returns a valid assignment that
//     never beats the exhaustive optimum; exact engines match it,
//   - the LNS engine is byte-identical at every worker count for a
//     fixed seed and never regresses below its greedy seed,
//   - the greedy heuristic never beats the exact optimum.
//
// CI runs this under -race, so the worker pool of the exact engines
// (and the portfolio's member race) is exercised for data races on
// every scenario.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mhla/internal/assign"
	"mhla/internal/progen"
	"mhla/internal/reuse"
	"mhla/internal/workspace"
)

// diffConfig keeps the instances small enough that 200+ exhaustive
// searches stay cheap even under -race.
var diffConfig = progen.Config{MaxSpace: 4000}

// diffSeeds returns the number of scenarios the harness sweeps.
func diffSeeds() int64 {
	if testing.Short() {
		return 60
	}
	return 220
}

func searchScenario(t *testing.T, sc *progen.Scenario, engine assign.Engine, workers int) *assign.Result {
	t.Helper()
	an, err := reuse.Analyze(sc.Program)
	if err != nil {
		t.Fatalf("seed %d: analyze: %v", sc.Seed, err)
	}
	opts := sc.Options
	opts.Engine = engine
	opts.Workers = workers
	// Seeded engines get a scenario-stable seed; the rest ignore it.
	opts.Seed = sc.Seed
	res, err := assign.Search(context.Background(), workspace.FromAnalysis(an), sc.Platform, opts)
	if err != nil {
		t.Fatalf("seed %d: %v engine: %v", sc.Seed, engine, err)
	}
	return res
}

// assignmentsEqual compares the decisions of two assignments (homes
// and chain selections); the immutable analysis/platform pointers may
// legitimately differ when the runs analyzed the program separately.
func assignmentsEqual(a, b *assign.Assignment) bool {
	if !reflect.DeepEqual(a.ArrayHome, b.ArrayHome) || len(a.Chains) != len(b.Chains) {
		return false
	}
	for id, ca := range a.Chains {
		cb := b.Chains[id]
		if cb == nil || !reflect.DeepEqual(ca.Levels, cb.Levels) || !reflect.DeepEqual(ca.Layers, cb.Layers) {
			return false
		}
	}
	return true
}

// TestDifferentialWorkerDeterminism: the parallel branch-and-bound
// engine must return a byte-identical Result — assignment, cost,
// state count, completeness — at workers 1, 2, 4 and 8 on every
// scenario.
func TestDifferentialWorkerDeterminism(t *testing.T) {
	for seed := int64(0); seed < diffSeeds(); seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ref := searchScenario(t, sc, assign.BranchBound, 1)
			for _, w := range []int{2, 4, 8} {
				got := searchScenario(t, sc, assign.BranchBound, w)
				if !reflect.DeepEqual(got.Cost, ref.Cost) ||
					got.States != ref.States ||
					got.Complete != ref.Complete ||
					!reflect.DeepEqual(got.Baseline, ref.Baseline) ||
					!assignmentsEqual(got.Assignment, ref.Assignment) {
					t.Errorf("workers=%d result differs from workers=1:\n%+v\nvs\n%+v\n%s\nvs\n%s",
						w, got.Cost, ref.Cost, got.Assignment, ref.Assignment)
				}
			}
		})
	}
}

// TestDifferentialBnBMatchesExhaustive: branch and bound must return
// exactly the exhaustive optimum — the same assignment (the
// lexicographically first optimal leaf), the same cost — while never
// evaluating more states.
func TestDifferentialBnBMatchesExhaustive(t *testing.T) {
	for seed := int64(0); seed < diffSeeds(); seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ex := searchScenario(t, sc, assign.Exhaustive, 4)
			bb := searchScenario(t, sc, assign.BranchBound, 4)
			if !ex.Complete || !bb.Complete {
				t.Fatalf("incomplete exact search (space %d): ex=%v bb=%v", sc.Space, ex.Complete, bb.Complete)
			}
			if !reflect.DeepEqual(bb.Cost, ex.Cost) {
				t.Errorf("bnb cost %+v != exhaustive cost %+v", bb.Cost, ex.Cost)
			}
			if !assignmentsEqual(bb.Assignment, ex.Assignment) {
				t.Errorf("bnb assignment differs from exhaustive:\n%svs\n%s", bb.Assignment, ex.Assignment)
			}
			if bb.States > ex.States {
				t.Errorf("bnb evaluated %d states, exhaustive only %d", bb.States, ex.States)
			}
			if err := bb.Assignment.Validate(); err != nil {
				t.Errorf("bnb assignment invalid: %v", err)
			}
			if !bb.Assignment.Fits() {
				t.Error("bnb assignment does not fit")
			}
		})
	}
}

// TestDifferentialRegistryNeverBeatsExhaustive is the registry-wide
// sweep: every registered engine — including ones tests register —
// must return a valid, capacity-feasible assignment whose score never
// drops below the exhaustive optimum, and must label the result with
// an engine name the registry resolves. The portfolio must addition-
// ally carry per-member provenance with exactly one winner.
func TestDifferentialRegistryNeverBeatsExhaustive(t *testing.T) {
	engines := assign.Engines()
	for seed := int64(0); seed < diffSeeds(); seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ex := searchScenario(t, sc, assign.Exhaustive, 4)
			if !ex.Complete {
				t.Fatalf("incomplete exhaustive search (space %d)", sc.Space)
			}
			obj := sc.Options.Objective
			optimum := obj.Score(ex.Cost)
			for _, info := range engines {
				res := searchScenario(t, sc, info.Name, 2)
				if err := res.Assignment.Validate(); err != nil {
					t.Errorf("engine %v: invalid assignment: %v", info.Name, err)
				}
				if !res.Assignment.Fits() {
					t.Errorf("engine %v: assignment over capacity", info.Name)
				}
				if _, _, err := assign.LookupEngine(res.Engine); err != nil {
					t.Errorf("engine %v: result labelled with unresolvable engine %q", info.Name, res.Engine)
				}
				if s := obj.Score(res.Cost); s < optimum-1e-9*math.Max(1, math.Abs(optimum)) {
					t.Errorf("engine %v score %v beat the exhaustive optimum %v", info.Name, s, optimum)
				}
				if info.Exact {
					if !res.Complete {
						t.Errorf("exact engine %v incomplete on tractable scenario", info.Name)
					}
					if !reflect.DeepEqual(res.Cost, ex.Cost) || !assignmentsEqual(res.Assignment, ex.Assignment) {
						t.Errorf("exact engine %v differs from the exhaustive optimum:\n%svs\n%s",
							info.Name, res.Assignment, ex.Assignment)
					}
				}
				if info.Name == assign.Portfolio {
					if len(res.Portfolio) == 0 {
						t.Error("portfolio result without provenance")
					}
					won := 0
					for _, run := range res.Portfolio {
						if run.Won {
							won++
						}
					}
					if won != 1 {
						t.Errorf("portfolio provenance has %d winners, want 1: %+v", won, res.Portfolio)
					}
				} else if res.Portfolio != nil {
					t.Errorf("engine %v result carries portfolio provenance", info.Name)
				}
			}
		})
	}
}

// TestDifferentialStochasticDeterminism: for a fixed seed the LNS
// engine must return a byte-identical Result at every worker count
// (it is sequential; Workers must not leak into the trajectory), and —
// being greedy-seeded with a never-regressing incumbent — must never
// score worse than the greedy heuristic.
func TestDifferentialStochasticDeterminism(t *testing.T) {
	for seed := int64(0); seed < diffSeeds(); seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ref := searchScenario(t, sc, assign.Stochastic, 1)
			if !ref.Complete {
				t.Fatal("no-deadline LNS flagged incomplete")
			}
			for _, w := range []int{2, 4, 8} {
				got := searchScenario(t, sc, assign.Stochastic, w)
				if !reflect.DeepEqual(got.Cost, ref.Cost) ||
					got.States != ref.States ||
					got.Complete != ref.Complete ||
					!assignmentsEqual(got.Assignment, ref.Assignment) {
					t.Errorf("workers=%d LNS result differs from workers=1 at fixed seed:\n%+v\nvs\n%+v",
						w, got.Cost, ref.Cost)
				}
			}
			gr := searchScenario(t, sc, assign.Greedy, 1)
			obj := sc.Options.Objective
			ls, gs := obj.Score(ref.Cost), obj.Score(gr.Cost)
			if ls > gs+1e-9*math.Max(1, math.Abs(gs)) {
				t.Errorf("LNS score %v regressed below its greedy seed %v", ls, gs)
			}
		})
	}
}

// TestDifferentialGreedyNeverBeatsExact: the greedy heuristic's score
// must never drop below the exact optimum on any scenario, under the
// scenario's own objective.
func TestDifferentialGreedyNeverBeatsExact(t *testing.T) {
	for seed := int64(0); seed < diffSeeds(); seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			gr := searchScenario(t, sc, assign.Greedy, 1)
			bb := searchScenario(t, sc, assign.BranchBound, 4)
			if !bb.Complete {
				t.Fatalf("incomplete bnb (space %d)", sc.Space)
			}
			obj := sc.Options.Objective
			gs, bs := obj.Score(gr.Cost), obj.Score(bb.Cost)
			if gs < bs-1e-9*math.Max(1, bs) {
				t.Errorf("greedy %v beat exact optimum %v (objective %v)", gs, bs, obj)
			}
			// Both engines must improve on or match the baseline.
			if bs > obj.Score(bb.Baseline)+1e-9*math.Max(1, bs) {
				t.Errorf("exact optimum %v worse than baseline %v", bs, obj.Score(bb.Baseline))
			}
		})
	}
}

// TestDifferentialSeedReplay: the greedy assignment must replay onto
// the exact engines' decision tables on every scenario. Branch and
// bound installs it as its seed: the materialized seed equals greedy's
// assignment decision for decision, its folded score matches the
// objective score of greedy's evaluated cost, and it is bit-identical
// to the score greedy reported last, since both come from the same
// contribution fold (a greedy that makes no move reports no score).
// LNS starts its walk from it instead of falling back to greedy's
// result (which would leave the state count at greedy's).
func TestDifferentialSeedReplay(t *testing.T) {
	for seed := int64(0); seed < diffSeeds(); seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			an, err := reuse.Analyze(sc.Program)
			if err != nil {
				t.Fatal(err)
			}
			ws := workspace.FromAnalysis(an)
			seedA, score := assign.GreedySeed(context.Background(), ws, sc.Platform, sc.Options)
			if seedA == nil {
				t.Fatal("greedy seed did not install")
			}
			opts := sc.Options
			opts.Engine = assign.Greedy
			var last *assign.Progress
			opts.Progress = func(p assign.Progress) { last = &p }
			if _, err := assign.Search(context.Background(), ws, sc.Platform, opts); err != nil {
				t.Fatal(err)
			}
			if last != nil && math.Float64bits(last.BestScore) != math.Float64bits(score) {
				t.Errorf("folded seed score %v != greedy's last reported score %v", score, last.BestScore)
			}
			gr := searchScenario(t, sc, assign.Greedy, 1)
			if !assignmentsEqual(seedA, gr.Assignment) {
				t.Errorf("materialized seed differs from greedy:\n%svs\n%s", seedA, gr.Assignment)
			}
			if got := seedA.Evaluate(assign.EvalOptions{}); !reflect.DeepEqual(got, gr.Cost) {
				t.Errorf("materialized seed costs %+v, greedy %+v", got, gr.Cost)
			}
			if gs := sc.Options.Objective.Score(gr.Cost); math.Abs(score-gs) > 1e-9*math.Max(1, math.Abs(gs)) {
				t.Errorf("folded seed score %v != greedy score %v", score, gs)
			}
			if ls := searchScenario(t, sc, assign.Stochastic, 1); ls.States <= gr.States {
				t.Errorf("LNS evaluated %d states, greedy %d: the walk never started", ls.States, gr.States)
			}
		})
	}
}

// TestDifferentialBnBStateCap: branch and bound capped at one state
// per task must still return a valid, fitting assignment priced by its
// own Evaluate that never scores worse than greedy, its seed.
func TestDifferentialBnBStateCap(t *testing.T) {
	for seed := int64(0); seed < diffSeeds(); seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			an, err := reuse.Analyze(sc.Program)
			if err != nil {
				t.Fatal(err)
			}
			opts := sc.Options
			opts.Engine = assign.BranchBound
			opts.MaxStates = 1
			opts.Workers = 2
			res, err := assign.Search(context.Background(), workspace.FromAnalysis(an), sc.Platform, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Assignment.Validate(); err != nil {
				t.Errorf("capped assignment invalid: %v", err)
			}
			if !res.Assignment.Fits() {
				t.Error("capped assignment over capacity")
			}
			if got := res.Assignment.Evaluate(assign.EvalOptions{}); !reflect.DeepEqual(res.Cost, got) {
				t.Errorf("reported cost %+v != evaluated %+v", res.Cost, got)
			}
			gr := searchScenario(t, sc, assign.Greedy, 1)
			obj := sc.Options.Objective
			if bs, gs := obj.Score(res.Cost), obj.Score(gr.Cost); bs > gs+1e-9*math.Max(1, math.Abs(gs)) {
				t.Errorf("capped bnb score %v worse than greedy %v", bs, gs)
			}
		})
	}
}
