package te

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

var diffObjectives = []assign.Objective{assign.MinEnergy, assign.MinTime, assign.MinEDP}

// TestDifferentialExtendMatchesOracle: the tracker-based TE step must
// return exactly the Plan of the Fits-based reference step — streams,
// priorities, hidden cycles, size limits and the extended
// assignment's extras — on the greedy assignments of progen scenarios
// (every objective, both gain rankings) and of the nine paper
// applications at three L1 sizes on two- and three-level platforms
// plus one platform without DMA, with write extension off and on.
// Each plan's assignment is extended a second time, so stale extras
// on the input are covered too.
func TestDifferentialExtendMatchesOracle(t *testing.T) {
	seeds := int64(220)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < seeds; seed++ {
		sc := progen.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ws, err := workspace.Compile(sc.Program)
			if err != nil {
				t.Fatal(err)
			}
			for _, obj := range diffObjectives {
				for _, perByte := range []bool{false, true} {
					opts := sc.Options
					opts.Objective, opts.AbsoluteGain = obj, !perByte
					checkExtendMatchesOracle(t, fmt.Sprintf("%v perByte=%v", obj, perByte), ws, sc.Platform, opts)
				}
			}
		})
	}
	for _, app := range apps.All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			ws, err := workspace.Compile(app.Build(apps.Paper))
			if err != nil {
				t.Fatal(err)
			}
			plats := []*platform.Platform{energy.TwoLevelNoDMA(app.L1)}
			for _, l1 := range []int64{app.L1 / 2, app.L1, 2 * app.L1} {
				plats = append(plats, energy.TwoLevel(l1), energy.ThreeLevel(l1, 8*l1))
			}
			for _, plat := range plats {
				for _, obj := range diffObjectives {
					opts := assign.Options{}
					opts.Objective = obj
					checkExtendMatchesOracle(t, fmt.Sprintf("%s %v", plat.Name, obj), ws, plat, opts)
				}
			}
		})
	}
}

func checkExtendMatchesOracle(t *testing.T, label string, ws *workspace.Workspace, plat *platform.Platform, opts assign.Options) {
	t.Helper()
	res, err := assign.Search(context.Background(), ws, plat, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, writes := range []bool{false, true} {
		o := Options{ExtendWrites: writes}
		in := res.Assignment
		for pass := 1; pass <= 2; pass++ {
			got, err := ExtendWithOptions(in, o)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := oracleExtendWithOptions(in, o)
			if err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s writes=%v pass %d: plan differs from the oracle:\n%s\nvs\n%s",
					label, writes, pass, got, want)
			}
			in = got.Assignment
		}
	}
}
