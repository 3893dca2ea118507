package assign_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/assign"
	"mhla/internal/energy"
	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// TestDifferentialSearchTaskReference: branch and bound bounds each
// child from the contribution tables before applying it, and that must
// not change what the search explores. On every subtree task searchTask
// must return the apply-then-bound reference DFS's best decisions,
// bit-identical score, state count, completeness and found flag, and
// the Result Search returns must equal the one the reference task
// outcomes merge to. Covered: progen scenarios and the nine paper
// applications at test scale, both exact engines, four state caps,
// each with the greedy seed alone and with a warm incumbent from the
// next-smaller L1.
func TestDifferentialSearchTaskReference(t *testing.T) {
	for seed := int64(0); seed < diffSeeds(); seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ws, err := workspace.Compile(sc.Program)
			if err != nil {
				t.Fatal(err)
			}
			li := sc.Platform.OnChipLayers()[0]
			smaller := ladderPlatform(sc.Platform, li, sc.Platform.Layers[li].Capacity/2)
			caps := []int{0, 1, 7, 100}
			checkSearchTasksMatchReference(t, ws, sc.Platform, smaller, sc.Options,
				map[assign.Engine][]int{assign.BranchBound: caps, assign.Exhaustive: caps})
		})
	}
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			ws, err := workspace.Compile(app.Build(apps.Test))
			if err != nil {
				t.Fatal(err)
			}
			// The exhaustive engine only runs capped here: the test-scale
			// decision spaces reach 1e15 leaves. On the largest of them
			// (qsdpcm) branch and bound prunes so hard that a task needs
			// seconds to reach even 7 leaves, so it runs at cap 1 only.
			plat := energy.TwoLevel(app.L1)
			bnbCaps := []int{1}
			if assign.SpaceSize(ws.Analysis, plat) <= 1e10 {
				bnbCaps = append(bnbCaps, 0, 7, 100)
			}
			checkSearchTasksMatchReference(t, ws, plat, energy.TwoLevel(app.L1/2), assign.Options{},
				map[assign.Engine][]int{assign.BranchBound: bnbCaps, assign.Exhaustive: {1, 7, 100}})
		})
	}
}

// checkSearchTasksMatchReference runs each engine at each of its state
// caps (0 is the default cap) on plat, once seeded by greedy alone and
// once warm-started from the engine's result on the smaller platform.
func checkSearchTasksMatchReference(t *testing.T, ws *workspace.Workspace, plat, smaller *platform.Platform, base assign.Options, caps map[assign.Engine][]int) {
	t.Helper()
	ctx := context.Background()
	for _, engine := range []assign.Engine{assign.BranchBound, assign.Exhaustive} {
		for _, maxStates := range caps[engine] {
			for _, warm := range []bool{false, true} {
				label := fmt.Sprintf("%v MaxStates=%d warm=%v", engine, maxStates, warm)
				opts := base
				opts.Engine, opts.MaxStates, opts.Workers = engine, maxStates, 2
				if warm {
					prev, err := assign.Search(ctx, ws, smaller, opts)
					if err != nil {
						t.Fatalf("%s: smaller L1: %v", label, err)
					}
					opts.Incumbent = prev.Assignment
				}
				res, err := assign.Search(ctx, ws, plat, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if opts.MaxStates == 0 {
					opts.MaxStates = assign.DefaultMaxStates
				}
				got, want, ref := assign.SearchTasksAgainstReference(ctx, ws, plat, opts, engine == assign.BranchBound)
				for i := range want {
					g, w := got[i], want[i]
					if math.Float64bits(g.Score) != math.Float64bits(w.Score) || g.States != w.States ||
						g.Complete != w.Complete || g.Found != w.Found || !sameBest(g.Best, w.Best) {
						t.Errorf("%s: task %d: score/states/complete/found %v/%d/%v/%v, reference %v/%d/%v/%v",
							label, i, g.Score, g.States, g.Complete, g.Found, w.Score, w.States, w.Complete, w.Found)
					}
				}
				if !reflect.DeepEqual(res.Cost, ref.Cost) || res.States != ref.States || res.Complete != ref.Complete ||
					res.Engine != ref.Engine || !sameBest(res.Assignment, ref.Assignment) {
					t.Errorf("%s: result differs from the reference merge: %+v %d %v %v, reference %+v %d %v %v",
						label, res.Cost, res.States, res.Complete, res.Engine, ref.Cost, ref.States, ref.Complete, ref.Engine)
				}
			}
		}
	}
}

// sameBest compares two possibly nil assignments decision for decision.
func sameBest(a, b *assign.Assignment) bool {
	if a == nil || b == nil {
		return a == b
	}
	return assignmentsEqual(a, b) && a.InPlace == b.InPlace
}
