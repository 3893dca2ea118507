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

// taskCost evaluates one task at one partition size over the task's
// compile-once workspace (the partition sweep evaluates every task at
// every grid size, so the program-side analysis is shared across the
// whole row).
func taskCost(ws *workspace.Workspace, l1 int64, opts assign.Options) (*core.Result, error) {
	ctx := context.Background()
	if l1 == 0 {
		// No partition: the task runs out of the box. Evaluate on a
		// minimal platform; the baseline ignores the scratchpad.
		res, err := core.Run(ctx, ws, core.Config{Platform: energy.TwoLevel(256), DisableTE: true})
		if err != nil {
			return nil, err
		}
		// Force the original operating point everywhere.
		res.MHLA, res.TE, res.Ideal = res.Original, res.Original, res.Original
		return res, nil
	}
	return core.Run(ctx, ws, core.Config{Platform: energy.TwoLevel(l1), Search: opts})
}

// Partition splits the budget among the tasks, minimizing the summed
// objective (energy for assign.MinEnergy, cycles for assign.MinTime,
// their product per task for assign.MinEDP).
func Partition(tasks []Task, budget int64, opts assign.Options) (*Plan, error) {
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
		ws, err := workspace.Compile(t.Program)
		if err != nil {
			return nil, fmt.Errorf("multitask: task %q: %w", t.Name, err)
		}
		table[ti] = make([]cell, len(sizes))
		for si, l1 := range sizes {
			res, err := taskCost(ws, l1, opts)
			if err != nil {
				return nil, fmt.Errorf("multitask: task %q at %dB: %w", t.Name, l1, err)
			}
			plan.Evaluations++
			table[ti][si] = cell{res: res, score: scoreOf(opts.Objective, res)}
		}
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

func scoreOf(o assign.Objective, res *core.Result) float64 {
	switch o {
	case assign.MinTime:
		return float64(res.TE.Cycles)
	case assign.MinEDP:
		return res.TE.Energy * float64(res.TE.Cycles)
	default:
		return res.TE.Energy
	}
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
