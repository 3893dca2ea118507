package assign_test

import (
	"context"
	"fmt"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/assign"
	"mhla/internal/energy"
	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// boundOracleSpace is the largest test-scale application decision
// space TestBoundOracle walks exhaustively (every app but jpeg and
// qsdpcm); -short keeps the ones up to 1e6 leaves.
func boundOracleSpace() int64 {
	if testing.Short() {
		return 1e6
	}
	return 2e7
}

// TestBoundOracle: branch and bound's node bound — home-free while
// array homes are open, home-aware below them — never exceeds the
// exhaustive minimum of the node's subtree by more than the pruning
// slack, and is never looser than the home-free bound. Covered: every
// node of the full decision tree of progen scenarios and of the
// test-scale applications small enough to walk, under all three
// objectives for the applications.
func TestBoundOracle(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < diffSeeds(); seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ws, err := workspace.Compile(sc.Program)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := assign.CheckBound(ctx, ws, sc.Platform, sc.Options); err != nil {
				t.Error(err)
			}
		})
	}
	for _, app := range apps.All() {
		app := app
		ws, err := workspace.Compile(app.Build(apps.Test))
		if err != nil {
			t.Fatal(err)
		}
		plat := energy.TwoLevel(app.L1)
		if assign.SpaceSize(ws.Analysis, plat) > boundOracleSpace() {
			continue
		}
		for _, obj := range []assign.Objective{assign.MinEnergy, assign.MinTime, assign.MinEDP} {
			obj := obj
			t.Run(fmt.Sprintf("%s/%v", app.Name, obj), func(t *testing.T) {
				t.Parallel()
				if _, err := assign.CheckBound(ctx, ws, plat, assign.Options{Objective: obj}); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestNodeCountWorkers: the depth-first node count of an exact search
// is a pure function of the search, like its state count: branch and
// bound and the exhaustive engine walk the same number of nodes at one
// and at two workers, on progen scenarios and the test-scale
// applications branch and bound completes quickly.
func TestNodeCountWorkers(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < diffSeeds(); seed++ {
		sc := diffConfig.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			ws, err := workspace.Compile(sc.Program)
			if err != nil {
				t.Fatal(err)
			}
			for _, engine := range []assign.Engine{assign.BranchBound, assign.Exhaustive} {
				checkNodesAcrossWorkers(t, ctx, ws, sc.Platform, sc.Options, engine)
			}
		})
	}
	for _, name := range []string{"me", "sobel", "durbin", "voice", "cavity", "wavelet", "dab", "jpeg"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ws, err := workspace.Compile(app.Build(apps.Test))
			if err != nil {
				t.Fatal(err)
			}
			checkNodesAcrossWorkers(t, ctx, ws, energy.TwoLevel(app.L1), assign.Options{}, assign.BranchBound)
		})
	}
}

// checkNodesAcrossWorkers runs one exact search at one and at two
// workers and requires a complete search with equal, positive node
// counts.
func checkNodesAcrossWorkers(t *testing.T, ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts assign.Options, engine assign.Engine) {
	t.Helper()
	var nodes [2]int
	for i, workers := range []int{1, 2} {
		opts.Engine, opts.Workers = engine, workers
		res, err := assign.Search(ctx, ws, plat, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Complete {
			t.Fatalf("%v at %d workers did not complete", engine, workers)
		}
		nodes[i] = res.Nodes
	}
	if nodes[0] <= 0 || nodes[0] != nodes[1] {
		t.Errorf("%v walked %d nodes at one worker, %d at two", engine, nodes[0], nodes[1])
	}
}
