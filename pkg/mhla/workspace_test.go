package mhla_test

// Facade tests of the compile-once workspace: Compile/WithWorkspace
// equivalence and validation, sweep worker equivalence, and the batch
// Explorer's one-workspace-per-distinct-program memoization.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mhla/pkg/mhla"
)

// TestRunWithWorkspaceMatchesPlainRun: a Run over a precompiled
// workspace must return exactly the plain Run result.
func TestRunWithWorkspaceMatchesPlainRun(t *testing.T) {
	p := reuseProgram()
	ws, err := mhla.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Program != p {
		t.Fatal("workspace not bound to the compiled program")
	}
	plain, err := mhla.Run(context.Background(), p, mhla.WithL1(512))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := mhla.Run(context.Background(), p, mhla.WithL1(512), mhla.WithWorkspace(ws))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.MHLA, shared.MHLA) || !reflect.DeepEqual(plain.TE, shared.TE) ||
		!reflect.DeepEqual(plain.Original, shared.Original) || !reflect.DeepEqual(plain.Ideal, shared.Ideal) ||
		plain.SearchStates != shared.SearchStates {
		t.Errorf("workspace run differs from plain run:\n%+v\nvs\n%+v", plain.MHLA, shared.MHLA)
	}
	if shared.Analysis != ws.Analysis {
		t.Error("workspace run did not reuse the compiled analysis")
	}
}

// TestWithWorkspaceValidation: nil and mismatched workspaces are
// rejected with typed option errors.
func TestWithWorkspaceValidation(t *testing.T) {
	p := reuseProgram()
	ws, err := mhla.Compile(p)
	if err != nil {
		t.Fatal(err)
	}

	var oe *mhla.OptionError
	if _, err := mhla.Run(context.Background(), p, mhla.WithWorkspace(nil)); !errors.As(err, &oe) || oe.Field != "Workspace" {
		t.Errorf("nil workspace: got %v, want *OptionError{Field: Workspace}", err)
	}
	other := reuseProgram()
	if _, err := mhla.Run(context.Background(), other, mhla.WithWorkspace(ws)); !errors.As(err, &oe) || oe.Field != "Workspace" {
		t.Errorf("mismatched program: got %v, want *OptionError{Field: Workspace}", err)
	}
	if _, err := mhla.SweepL1(context.Background(), other, []int64{512}, mhla.WithWorkspace(ws)); !errors.As(err, &oe) || oe.Field != "Workspace" {
		t.Errorf("mismatched sweep program: got %v, want *OptionError{Field: Workspace}", err)
	}
	if _, err := mhla.SweepL1(context.Background(), p, []int64{512}, mhla.WithWorkers(-1)); !errors.As(err, &oe) || oe.Field != "Workers" {
		t.Errorf("negative sweep workers: got %v, want *OptionError{Field: Workers}", err)
	}
}

// TestSweepL1WorkspaceWorkerEquivalence: the sweep result is
// identical with and without a preshared workspace, at every worker
// count.
func TestSweepL1WorkspaceWorkerEquivalence(t *testing.T) {
	p := reuseProgram()
	sizes := []int64{256, 512, 1024, 4096}
	ref, err := mhla.SweepL1(context.Background(), p, sizes, mhla.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := mhla.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		sw, err := mhla.SweepL1(context.Background(), p, sizes,
			mhla.WithWorkspace(ws), mhla.WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sw.CSV() != ref.CSV() {
			t.Errorf("workers=%d: sweep differs from sequential fresh sweep:\n%s\nvs\n%s",
				workers, sw.CSV(), ref.CSV())
		}
	}
}

// TestExplorerReusesWorkspacePerProgram: a batch over a grid must
// compile each distinct program once — observable as all jobs of one
// program sharing the same Analysis value, with distinct programs
// keeping distinct analyses.
func TestExplorerReusesWorkspacePerProgram(t *testing.T) {
	grid := testGrid(t) // 2 apps x 2 sizes x 2 objectives
	var ex mhla.Explorer
	results, err := ex.Explore(context.Background(), grid.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	byProgram := make(map[*mhla.Program]*mhla.Analysis)
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
		if an, ok := byProgram[r.Result.Program]; ok {
			if r.Result.Analysis != an {
				t.Errorf("%s: job re-analyzed its program instead of reusing the memoized workspace", r.Label)
			}
		} else {
			byProgram[r.Result.Program] = r.Result.Analysis
		}
	}
	if len(byProgram) != 2 {
		t.Fatalf("expected 2 distinct programs in the grid, saw %d", len(byProgram))
	}
	seen := make(map[*mhla.Analysis]bool)
	for _, an := range byProgram {
		if seen[an] {
			t.Error("distinct programs share one analysis")
		}
		seen[an] = true
	}
}

// TestExplorerMemoizedResultsMatchIndividualRuns: workspace
// memoization must not change any job's result.
func TestExplorerMemoizedResultsMatchIndividualRuns(t *testing.T) {
	grid := testGrid(t)
	jobs := grid.Jobs()
	var ex mhla.Explorer
	results, err := ex.Explore(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		solo, err := mhla.Run(context.Background(), job.Program, job.Options...)
		if err != nil {
			t.Fatalf("%s: %v", job.Label, err)
		}
		got := results[i].Result
		if !reflect.DeepEqual(solo.MHLA, got.MHLA) || !reflect.DeepEqual(solo.TE, got.TE) ||
			solo.SearchStates != got.SearchStates {
			t.Errorf("%s: batch result differs from individual run", job.Label)
		}
	}
}
