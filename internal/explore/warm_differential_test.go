package explore_test

// The warm-start differential suite: for seeded progen programs it
// asserts that the chained branch-and-bound sweep — every point's
// search warm-started from its predecessor's optimum — returns
// byte-identical operating points, assignments and time-extension
// plans to fresh per-point flow runs, at workers 1, 2, 4 and 8, with
// the explored state count never growing. Across worker counts the
// chained sweep must agree exactly, state counts included. CI runs
// this under -race (the TestSweepWorkspace pattern), so the shared
// catalog cache and the Begin/Finish overlap are exercised for data
// races on every scenario.

import (
	"context"
	"fmt"
	"testing"

	"mhla/internal/assign"
	"mhla/internal/core"
	"mhla/internal/energy"
	"mhla/internal/explore"
	"mhla/internal/progen"
	"mhla/internal/workspace"
)

// warmSizes is deliberately unsorted: the chain must evaluate in
// ascending-size order internally while reporting points in the
// caller's order.
var warmSizes = []int64{2048, 512, 8192, 1024}

func warmSeeds() int64 {
	if testing.Short() {
		return 8
	}
	return 24
}

// warmOptions forces the exact branch-and-bound engine on every seed
// — the warm-start chain only engages for it.
func warmOptions(sc *progen.Scenario) assign.Options {
	opts := sc.Options
	opts.Engine = assign.BranchBound
	return opts
}

// TestSweepWorkspaceWarmStartMatchesFresh: the chained warm-started
// sweep must return, at every worker count, exactly the results of
// fresh per-point flow runs — only the search effort may shrink — and
// must be byte-identical across worker counts, effort included.
func TestSweepWorkspaceWarmStartMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < warmSeeds(); seed++ {
		sc := scenarioConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			fresh := make([]*core.Result, len(warmSizes))
			for i, l1 := range warmSizes {
				fws, err := workspace.Compile(sc.Program)
				if err != nil {
					t.Fatalf("seed %d: fresh compile at %dB: %v", sc.Seed, l1, err)
				}
				res, err := core.Run(context.Background(), fws,
					core.Config{Platform: energy.TwoLevel(l1), Search: warmOptions(sc)})
				if err != nil {
					t.Fatalf("seed %d: fresh run at %dB: %v", sc.Seed, l1, err)
				}
				fresh[i] = res
			}
			ws, err := workspace.Compile(sc.Program)
			if err != nil {
				t.Fatalf("seed %d: compile: %v", sc.Seed, err)
			}
			var first *explore.Sweep
			for _, workers := range []int{1, 2, 4, 8} {
				opts := warmOptions(sc)
				opts.Workers = workers
				sw, err := explore.Run(context.Background(), ws, warmSizes, core.Config{Search: opts})
				if err != nil {
					t.Fatalf("seed %d: warm sweep (workers=%d): %v", sc.Seed, workers, err)
				}
				if len(sw.Points) != len(warmSizes) {
					t.Fatalf("seed %d: %d points, want %d", sc.Seed, len(sw.Points), len(warmSizes))
				}
				for i, pt := range sw.Points {
					if pt.L1 != warmSizes[i] {
						t.Fatalf("seed %d: point %d is size %d, want %d (input order broken)",
							sc.Seed, i, pt.L1, warmSizes[i])
					}
					if !resultsEqual(fresh[i], pt.Result, true) {
						t.Errorf("seed %d size %d workers %d: warm-started result differs from fresh run\nfresh: MHLA=%+v TE=%+v states=%d\nwarm:  MHLA=%+v TE=%+v states=%d",
							sc.Seed, pt.L1, workers,
							fresh[i].MHLA, fresh[i].TE, fresh[i].SearchStates,
							pt.Result.MHLA, pt.Result.TE, pt.Result.SearchStates)
					}
				}
				if first == nil {
					first = sw
					continue
				}
				for i, pt := range sw.Points {
					if !resultsEqual(first.Points[i].Result, pt.Result, false) {
						t.Errorf("seed %d size %d: workers=%d diverges from workers=1 (states %d vs %d)",
							sc.Seed, pt.L1, workers,
							pt.Result.SearchStates, first.Points[i].Result.SearchStates)
					}
				}
			}
		})
	}
}

// TestSweepWorkspaceWarmStartCancellation: cancelling the context
// aborts the chained branch-and-bound sweep promptly with ctx.Err().
func TestSweepWorkspaceWarmStartCancellation(t *testing.T) {
	sc := scenarioConfig.Generate(1)
	ws, err := workspace.Compile(sc.Program)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := warmOptions(sc)
	opts.Workers = 4
	_, err = explore.Run(ctx, ws, warmSizes, core.Config{Search: opts})
	if err != context.Canceled {
		t.Errorf("cancelled chained sweep returned %v, want context.Canceled", err)
	}
}

// TestSweepWorkspaceWarmStartPrunes: the chain must actually hand each
// point its predecessor's optimum — over the seeded scenarios the
// chained sweep explores strictly fewer states than fresh per-point
// runs. A handoff that dropped the incumbent would still match fresh
// results exactly, so the equality suite above cannot see it.
func TestSweepWorkspaceWarmStartPrunes(t *testing.T) {
	var fresh, warm int
	for seed := int64(0); seed < warmSeeds(); seed++ {
		sc := scenarioConfig.Generate(seed)
		ws, err := workspace.Compile(sc.Program)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", sc.Seed, err)
		}
		for _, l1 := range warmSizes {
			res, err := core.Run(context.Background(), ws,
				core.Config{Platform: energy.TwoLevel(l1), Search: warmOptions(sc)})
			if err != nil {
				t.Fatalf("seed %d: fresh run at %dB: %v", sc.Seed, l1, err)
			}
			fresh += res.SearchStates
		}
		opts := warmOptions(sc)
		opts.Workers = 2
		sw, err := explore.Run(context.Background(), ws, warmSizes, core.Config{Search: opts})
		if err != nil {
			t.Fatalf("seed %d: warm sweep: %v", sc.Seed, err)
		}
		for _, pt := range sw.Points {
			warm += pt.Result.SearchStates
		}
	}
	if warm >= fresh {
		t.Errorf("chained sweep explored %d states, fresh runs %d: the warm start never pruned", warm, fresh)
	}
}
