// Package multitask implements the paper's declared future work:
// "Although, we only consider single threaded applications, we plan
// to extend our technique to multiple tasks with multiple threads."
//
// The extension follows common embedded practice: tasks time-share
// the processor and receive static partitions of the on-chip
// scratchpad. For every task the package sweeps the partition sizes
// with the full MHLA+TE flow, then chooses the split of the total
// on-chip budget that minimizes the combined objective, by dynamic
// programming over the size grid (optimal for the evaluated grid,
// verified against brute force in tests).
package multitask

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"mhla/internal/assign"
	"mhla/internal/core"
	"mhla/internal/energy"
	"mhla/internal/explore"
	"mhla/internal/model"
	"mhla/internal/workspace"
)

// Task is one application sharing the platform.
type Task struct {
	// Name labels the task.
	Name string
	// Program is the task's application model.
	Program *model.Program
}

// Allocation is the chosen partition for one task.
type Allocation struct {
	// Task is the task name.
	Task string
	// L1 is the scratchpad bytes granted (0 = the task runs out of
	// background memory only).
	L1 int64
	// Result is the evaluated flow outcome at that size.
	Result *core.Result
}

// Plan is a complete budget split.
type Plan struct {
	// Budget is the total on-chip budget in bytes.
	Budget int64
	// Allocations lists the per-task grants, in task order.
	Allocations []Allocation
	// TotalEnergy and TotalCycles are the summed MHLA+TE costs of all
	// tasks (tasks time-share the CPU, so cycles add).
	TotalEnergy float64
	TotalCycles int64
	// Evaluations counts the flow runs performed during the sweep.
	Evaluations int
}

// grid returns the candidate partition sizes up to the budget: zero
// plus powers of two from 256.
func grid(budget int64) []int64 {
	sizes := []int64{0}
	for c := int64(256); c <= budget; c *= 2 {
		sizes = append(sizes, c)
	}
	return sizes
}

// outOfTheBox evaluates a task without a partition: it runs out of
// background memory only. The baseline ignores the scratchpad, so a
// minimal platform serves.
func outOfTheBox(ctx context.Context, ws *workspace.Workspace) (*core.Result, error) {
	res, err := core.Run(ctx, ws, core.Config{Platform: energy.TwoLevel(256), DisableTE: true})
	if err != nil {
		return nil, err
	}
	// Force the original operating point everywhere.
	res.MHLA, res.TE, res.Ideal = res.Original, res.Original, res.Original
	return res, nil
}

// Partition splits the budget among the tasks, minimizing the summed
// objective (energy for assign.MinEnergy, cycles for assign.MinTime,
// their product per task for assign.MinEDP). Each task's non-zero
// grid sizes run as one explore.Run sweep over the task's
// compile-once workspace, so opts.Workers is the sweep's worker
// budget and branch-and-bound points chain their warm starts. When
// ctx is cancelled Partition returns promptly with an error wrapping
// ctx.Err().
func Partition(ctx context.Context, tasks []Task, budget int64, opts assign.Options) (*Plan, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("multitask: no tasks")
	}
	if budget < 0 {
		return nil, fmt.Errorf("multitask: negative budget %d", budget)
	}
	names := map[string]bool{}
	for _, t := range tasks {
		if names[t.Name] {
			return nil, fmt.Errorf("multitask: duplicate task %q", t.Name)
		}
		names[t.Name] = true
	}
	sizes := grid(budget)
	plan := &Plan{Budget: budget}

	// Evaluate every (task, size) point.
	type cell struct {
		res   *core.Result
		score float64
	}
	table := make([][]cell, len(tasks))
	for ti, t := range tasks {
		row, err := taskRow(ctx, t, sizes, opts)
		if err != nil {
			return nil, fmt.Errorf("multitask: task %q: %w", t.Name, err)
		}
		table[ti] = make([]cell, len(sizes))
		for si, res := range row {
			table[ti][si] = cell{res: res, score: opts.Objective.Score(res.TE)}
		}
		plan.Evaluations += len(row)
	}

	// DP over budget steps (the grid granularity).
	const step = 256
	slots := int(budget/step) + 1
	const inf = 1e300
	// best[ti][s]: minimal score of tasks ti.. with s slots left.
	best := make([][]float64, len(tasks)+1)
	choice := make([][]int, len(tasks))
	for i := range best {
		best[i] = make([]float64, slots)
	}
	for ti := range choice {
		choice[ti] = make([]int, slots)
	}
	for ti := len(tasks) - 1; ti >= 0; ti-- {
		for s := 0; s < slots; s++ {
			best[ti][s] = inf
			for si, l1 := range sizes {
				need := int(l1 / step)
				if need > s {
					continue
				}
				v := table[ti][si].score + best[ti+1][s-need]
				if v < best[ti][s] {
					best[ti][s] = v
					choice[ti][s] = si
				}
			}
		}
	}

	// Reconstruct.
	s := slots - 1
	for ti, t := range tasks {
		si := choice[ti][s]
		l1 := sizes[si]
		s -= int(l1 / step)
		res := table[ti][si].res
		plan.Allocations = append(plan.Allocations, Allocation{Task: t.Name, L1: l1, Result: res})
		plan.TotalEnergy += res.TE.Energy
		plan.TotalCycles += res.TE.Cycles
	}
	return plan, nil
}

// taskRow evaluates one task at every grid size (sizes[0] is the
// zero partition).
func taskRow(ctx context.Context, t Task, sizes []int64, opts assign.Options) ([]*core.Result, error) {
	ws, err := workspace.Compile(t.Program)
	if err != nil {
		return nil, err
	}
	base, err := outOfTheBox(ctx, ws)
	if err != nil {
		return nil, err
	}
	row := []*core.Result{base}
	if len(sizes) == 1 {
		return row, nil
	}
	sw, err := explore.Run(ctx, ws, sizes[1:], core.Config{Search: opts})
	if err != nil {
		return nil, err
	}
	for _, pt := range sw.Points {
		row = append(row, pt.Result)
	}
	return row, nil
}

// Used returns the granted bytes.
func (p *Plan) Used() int64 {
	var used int64
	for _, a := range p.Allocations {
		used += a.L1
	}
	return used
}

// String renders the split.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "multi-task partition of %dB (%d evaluations)\n", p.Budget, p.Evaluations)
	allocs := append([]Allocation(nil), p.Allocations...)
	sort.Slice(allocs, func(i, j int) bool { return allocs[i].Task < allocs[j].Task })
	for _, a := range allocs {
		g := a.Result.Gains()
		fmt.Fprintf(&sb, "  %-10s %6dB  te=%5.1f%% energy=%5.1f%%\n",
			a.Task, a.L1, 100*g.TECycles, 100*g.MHLAEnergy)
	}
	fmt.Fprintf(&sb, "  total: %d cycles, %.0f pJ (used %d of %d bytes)\n",
		p.TotalCycles, p.TotalEnergy, p.Used(), p.Budget)
	return sb.String()
}
