package multitask

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/assign"
	"mhla/internal/core"
	"mhla/internal/energy"
	"mhla/internal/workspace"
)

func testTasks(t *testing.T, names ...string) []Task {
	t.Helper()
	var tasks []Task
	for _, n := range names {
		app, err := apps.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, Task{Name: n, Program: app.Build(apps.Test)})
	}
	return tasks
}

func TestPartitionRespectsBudget(t *testing.T) {
	tasks := testTasks(t, "durbin", "voice", "sobel")
	plan, err := Partition(context.Background(), tasks, 4096, assign.Options{})
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if plan.Used() > plan.Budget {
		t.Errorf("used %d > budget %d", plan.Used(), plan.Budget)
	}
	if len(plan.Allocations) != 3 {
		t.Fatalf("allocations = %d", len(plan.Allocations))
	}
	for _, a := range plan.Allocations {
		if a.Result == nil {
			t.Errorf("task %s has no result", a.Task)
		}
	}
}

func TestPartitionMonotoneInBudget(t *testing.T) {
	// More budget can only help (the smaller grid is a subset).
	tasks := testTasks(t, "durbin", "voice")
	var prev float64
	for i, budget := range []int64{512, 2048, 8192} {
		plan, err := Partition(context.Background(), tasks, budget, assign.Options{})
		if err != nil {
			t.Fatalf("Partition(%d): %v", budget, err)
		}
		if i > 0 && plan.TotalEnergy > prev+1e-9 {
			t.Errorf("budget %d worsened energy: %v -> %v", budget, prev, plan.TotalEnergy)
		}
		prev = plan.TotalEnergy
	}
}

// pointCost evaluates one task at one partition size with a fresh
// per-point flow run, independently of Partition's sweep.
func pointCost(ws *workspace.Workspace, l1 int64, opts assign.Options) (*core.Result, error) {
	if l1 == 0 {
		return outOfTheBox(context.Background(), ws)
	}
	return core.Run(context.Background(), ws, core.Config{Platform: energy.TwoLevel(l1), Search: opts})
}

func TestPartitionOptimalVsBruteForce(t *testing.T) {
	// Two tasks, small budget: compare the DP against explicit
	// enumeration of the same grid.
	tasks := testTasks(t, "durbin", "voice")
	opts := assign.Options{}
	budget := int64(1024)
	plan, err := Partition(context.Background(), tasks, budget, opts)
	if err != nil {
		t.Fatal(err)
	}
	sizes := grid(budget)
	ws0, err := workspace.Compile(tasks[0].Program)
	if err != nil {
		t.Fatal(err)
	}
	ws1, err := workspace.Compile(tasks[1].Program)
	if err != nil {
		t.Fatal(err)
	}
	best := 1e300
	for _, s0 := range sizes {
		for _, s1 := range sizes {
			if s0+s1 > budget {
				continue
			}
			r0, err := pointCost(ws0, s0, opts)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := pointCost(ws1, s1, opts)
			if err != nil {
				t.Fatal(err)
			}
			if v := r0.TE.Energy + r1.TE.Energy; v < best {
				best = v
			}
		}
	}
	if diff := plan.TotalEnergy - best; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("DP energy %v != brute force %v", plan.TotalEnergy, best)
	}
}

func TestPartitionZeroBudget(t *testing.T) {
	tasks := testTasks(t, "durbin")
	plan, err := Partition(context.Background(), tasks, 0, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Allocations[0].L1 != 0 {
		t.Errorf("allocated %d bytes from a zero budget", plan.Allocations[0].L1)
	}
	// Out-of-the-box point: MHLA == original.
	r := plan.Allocations[0].Result
	if r.TE.Cycles != r.Original.Cycles {
		t.Error("zero-partition task not at the original point")
	}
}

func TestPartitionSkewsTowardHungrierTask(t *testing.T) {
	// durbin gains little beyond its small working set; sobel keeps
	// gaining with a bigger line buffer — the split must not starve
	// whichever profits more.
	tasks := testTasks(t, "durbin", "sobel")
	plan, err := Partition(context.Background(), tasks, 2048, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int64{}
	for _, a := range plan.Allocations {
		byName[a.Task] = a.L1
	}
	if byName["durbin"]+byName["sobel"] == 0 {
		t.Error("nothing allocated at all")
	}
	t.Logf("split: durbin=%d sobel=%d total energy %.0f",
		byName["durbin"], byName["sobel"], plan.TotalEnergy)
}

func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(context.Background(), nil, 1024, assign.Options{}); err == nil {
		t.Error("accepted empty task list")
	}
	tasks := testTasks(t, "durbin")
	if _, err := Partition(context.Background(), tasks, -1, assign.Options{}); err == nil {
		t.Error("accepted negative budget")
	}
	dup := append(tasks, tasks[0])
	if _, err := Partition(context.Background(), dup, 1024, assign.Options{}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("err = %v", err)
	}
}

// TestPartitionCancellation: a cancelled context aborts the partition
// sweep, whether it is cancelled up front or mid-sweep.
func TestPartitionCancellation(t *testing.T) {
	tasks := testTasks(t, "durbin", "voice", "sobel")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Partition(ctx, tasks, 4096, assign.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled partition returned %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	opts := assign.Options{}
	opts.Progress = func(assign.Progress) { cancel() }
	if _, err := Partition(ctx, tasks, 4096, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("partition cancelled mid-sweep returned %v, want context.Canceled", err)
	}
}

func TestPlanString(t *testing.T) {
	tasks := testTasks(t, "durbin", "voice")
	plan, err := Partition(context.Background(), tasks, 2048, assign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	for _, want := range []string{"multi-task partition", "durbin", "voice", "total:"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}
