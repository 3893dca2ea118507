package assign_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/assign"
	"mhla/internal/energy"
	"mhla/internal/platform"
	"mhla/internal/progen"
	"mhla/internal/workspace"
)

var allObjectives = []assign.Objective{assign.MinEnergy, assign.MinTime, assign.MinEDP}

// TestDifferentialGreedyMatchesOracle: the incremental greedy engine
// (apply, check, score and undo on one mutable position) must make
// exactly the decisions of the clone-per-move reference engine — same
// assignment, bit-identical Cost, the same evaluated state count and
// the same Progress sequence — over progen scenarios under every
// objective with both gain rankings, and over the nine paper
// applications at three L1 sizes on two- and three-level platforms.
func TestDifferentialGreedyMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < diffSeeds(); seed++ {
		sc := progen.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ws, err := workspace.Compile(sc.Program)
			if err != nil {
				t.Fatal(err)
			}
			for _, obj := range allObjectives {
				for _, perByte := range []bool{false, true} {
					opts := sc.Options
					opts.Objective, opts.AbsoluteGain = obj, !perByte
					checkGreedyMatchesOracle(t, fmt.Sprintf("%v perByte=%v", obj, perByte), ws, sc.Platform, opts)
				}
			}
		})
	}
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			ws := paperWorkspace(t, app)
			for _, l1 := range []int64{app.L1 / 2, app.L1, 2 * app.L1} {
				plats := []*platform.Platform{energy.TwoLevel(l1), energy.ThreeLevel(l1, 8*l1)}
				for _, plat := range plats {
					for _, obj := range allObjectives {
						opts := assign.Options{}
						opts.Objective = obj
						checkGreedyMatchesOracle(t, fmt.Sprintf("%s %v", plat.Name, obj), ws, plat, opts)
					}
				}
			}
		})
	}
}

func checkGreedyMatchesOracle(t *testing.T, label string, ws *workspace.Workspace, plat *platform.Platform, opts assign.Options) {
	t.Helper()
	opts.Engine = assign.Greedy
	var got, want []assign.Progress
	opts.Progress = func(p assign.Progress) { got = append(got, p) }
	res, err := assign.Search(context.Background(), ws, plat, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	opts.Progress = func(p assign.Progress) { want = append(want, p) }
	ref := assign.OracleGreedy(context.Background(), ws, plat, opts)
	if !assignmentsEqual(res.Assignment, ref.Assignment) || res.Assignment.InPlace != ref.Assignment.InPlace {
		t.Errorf("%s: assignment differs from the oracle:\n%svs\n%s", label, res.Assignment, ref.Assignment)
	}
	if !reflect.DeepEqual(res.Cost, ref.Cost) {
		t.Errorf("%s: cost %+v != oracle %+v", label, res.Cost, ref.Cost)
	}
	if res.States != ref.States || res.Complete != ref.Complete || res.Engine != ref.Engine {
		t.Errorf("%s: states/complete/engine %d/%v/%v != oracle %d/%v/%v",
			label, res.States, res.Complete, res.Engine, ref.States, ref.Complete, ref.Engine)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: progress sequence differs from the oracle:\n%+v\nvs\n%+v", label, got, want)
	}
}
