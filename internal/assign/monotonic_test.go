package assign_test

// Monotonicity property suite: on a fixed-cost platform, growing an
// on-chip layer's capacity only grows the feasible decision set — the
// per-option costs do not change — so the exact optimum is monotone
// non-increasing in capacity. (This is a property of fixed-cost
// ladders only: the energy.TwoLevel platforms price SRAM by capacity,
// so optima across *those* sweeps are legitimately non-monotone,
// which is exactly why warm-start incumbents are always re-scored.)
//
// The same ladder doubles as an assign-level differential for the
// warm-start chain: seeding each point with its predecessor's optimum
// must leave the assignment and cost byte-identical and can only
// shrink the explored state count.

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mhla/internal/assign"
	"mhla/internal/platform"
	"mhla/internal/progen"
	"mhla/internal/workspace"
)

// monotonicLadder is the ascending capacity ladder applied to the
// scenario's first on-chip layer (costs kept from the scenario).
var monotonicLadder = []int64{64, 256, 1024, 4096, 16384}

func monotonicSeeds() int64 {
	if testing.Short() {
		return 10
	}
	return 30
}

// ladderPlatform clones the scenario platform with the given capacity
// on its first on-chip layer; every latency and energy cost is kept.
// Further bounded layers are raised to at least the same capacity
// (never shrunk — capacities must stay monotone across the rungs for
// the property to hold, and the hierarchy must stay valid: a farther
// layer may not be smaller than a closer one).
func ladderPlatform(base *platform.Platform, li int, cap int64) *platform.Platform {
	plat := *base
	plat.Layers = append([]platform.Layer(nil), base.Layers...)
	plat.Layers[li].Capacity = cap
	for j := li + 1; j < len(plat.Layers); j++ {
		if plat.Layers[j].Capacity != 0 && plat.Layers[j].Capacity < cap {
			plat.Layers[j].Capacity = cap
		}
	}
	return &plat
}

func TestExactOptimumMonotoneInCapacity(t *testing.T) {
	cfg := progen.Config{MaxSpace: 4000}
	for seed := int64(0); seed < monotonicSeeds(); seed++ {
		sc := cfg.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ws, err := workspace.Compile(sc.Program)
			if err != nil {
				t.Fatalf("seed %d: compile: %v", sc.Seed, err)
			}
			onChip := sc.Platform.OnChipLayers()
			if len(onChip) == 0 {
				t.Fatalf("seed %d: scenario platform has no on-chip layer", sc.Seed)
			}
			li := onChip[0]
			opts := sc.Options
			opts.Engine = assign.BranchBound

			var prev *assign.Result
			prevScore := math.Inf(1)
			prevCap := int64(0)
			for _, cap := range monotonicLadder {
				plat := ladderPlatform(sc.Platform, li, cap)
				fresh, err := assign.Search(context.Background(), ws, plat, opts)
				if err != nil {
					t.Fatalf("seed %d cap %d: search: %v", sc.Seed, cap, err)
				}
				if !fresh.Complete {
					t.Fatalf("seed %d cap %d: exact search incomplete — shrink the scenario bounds", sc.Seed, cap)
				}
				score := opts.Objective.Score(fresh.Cost)
				// Identical decisions fold to identical contributions at
				// every rung, so the minimum over the grown feasible set
				// cannot rise; the slack covers only the ulp-level
				// difference between Evaluate's energy fold and the
				// search's.
				if slack := 1e-9 * (1 + math.Abs(prevScore)); score > prevScore+slack {
					t.Errorf("seed %d: %v optimum rose from %g (cap %d) to %g (cap %d) — monotonicity violated",
						sc.Seed, opts.Objective, prevScore, prevCap, score, cap)
				}

				if prev != nil {
					wopts := opts
					wopts.Incumbent = prev.Assignment
					warm, err := assign.Search(context.Background(), ws, plat, wopts)
					if err != nil {
						t.Fatalf("seed %d cap %d: warm search: %v", sc.Seed, cap, err)
					}
					if !reflect.DeepEqual(warm.Cost, fresh.Cost) ||
						!reflect.DeepEqual(warm.Assignment.ArrayHome, fresh.Assignment.ArrayHome) ||
						!reflect.DeepEqual(warm.Assignment.Extras, fresh.Assignment.Extras) {
						t.Errorf("seed %d cap %d: warm-started result differs from fresh\nfresh: %+v\nwarm:  %+v",
							sc.Seed, cap, fresh.Cost, warm.Cost)
					}
					if warm.States > fresh.States {
						t.Errorf("seed %d cap %d: warm start explored more states (%d) than fresh (%d)",
							sc.Seed, cap, warm.States, fresh.States)
					}
				}
				prev, prevScore, prevCap = fresh, score, cap
			}
		})
	}
}
