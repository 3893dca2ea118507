package assign_test

import (
	"context"
	"errors"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/assign"
	"mhla/internal/energy"
	"mhla/internal/workspace"
)

// paperWorkspace compiles one paper-scale application and returns it
// with the figure platform (TwoLevel at the app's L1 size).
func paperWorkspace(tb testing.TB, app apps.App) *workspace.Workspace {
	tb.Helper()
	ws, err := workspace.Compile(app.Build(apps.Paper))
	if err != nil {
		tb.Fatalf("%s: %v", app.Name, err)
	}
	return ws
}

// BenchmarkGreedy measures the greedy engine alone over precompiled
// workspaces: the program analysis is hoisted out of the loop, so
// ns/op and allocs/op are the engine's own cost.
func BenchmarkGreedy(b *testing.B) {
	for _, app := range apps.All() {
		ws := paperWorkspace(b, app)
		plat := energy.TwoLevel(app.L1)
		opts := assign.Options{}
		b.Run(app.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := assign.Search(context.Background(), ws, plat, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGreedyAllocs is a deterministic allocation gate on the default
// engine: a paper-scale qsdpcm greedy search over a precompiled
// workspace must stay within a fixed allocation budget. The search
// mutates one occupancy state in place, so its allocations are the
// per-search tables and the final Assignment, not a clone per move.
func TestGreedyAllocs(t *testing.T) {
	app, err := apps.ByName("qsdpcm")
	if err != nil {
		t.Fatal(err)
	}
	ws := paperWorkspace(t, app)
	plat := energy.TwoLevel(app.L1)
	opts := assign.Options{}
	const budget = 1000
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := assign.Search(context.Background(), ws, plat, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("qsdpcm greedy search: %.0f allocs per search, budget %d", allocs, budget)
	}
}

// TestGreedyCancelMidSearch cancels a paper-scale greedy search from
// its own Progress callback after the first iteration: the move loop
// must notice and Search must return context.Canceled instead of a
// converged result.
func TestGreedyCancelMidSearch(t *testing.T) {
	app, err := apps.ByName("qsdpcm")
	if err != nil {
		t.Fatal(err)
	}
	ws := paperWorkspace(t, app)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := assign.Options{}
	iters := 0
	opts.Progress = func(p assign.Progress) {
		iters = p.Iter
		if p.Iter == 1 {
			cancel()
		}
	}
	res, err := assign.Search(ctx, ws, energy.TwoLevel(app.L1), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Search after mid-search cancel = (%v, %v), want context.Canceled", res, err)
	}
	if iters != 1 {
		t.Errorf("search ran %d iterations, want it to stop after the first", iters)
	}
}
