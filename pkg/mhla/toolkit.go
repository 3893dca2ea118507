package mhla

import (
	"context"
	"fmt"

	"mhla/internal/dmasim"
	"mhla/internal/explore"
	"mhla/internal/layout"
	"mhla/internal/multitask"
	"mhla/internal/pareto"
	"mhla/internal/report"
	"mhla/internal/reuse"
	"mhla/internal/sim"
	"mhla/internal/te"
)

// Analyze runs the data-reuse analysis alone, deriving the
// copy-candidate chains the assignment search decides over.
func Analyze(p *Program) (*Analysis, error) { return reuse.Analyze(p) }

// Extend runs the time-extension step alone on an assignment: the
// per-block-transfer prefetch scheduling of the paper's Figure 1.
func Extend(a *Assignment) (*Plan, error) { return te.Extend(a) }

// ExtendWithWrites is Extend with the write-back overlap extension
// enabled (the A4 ablation beyond the paper's Figure 1).
func ExtendWithWrites(a *Assignment) (*Plan, error) {
	return te.ExtendWithOptions(a, te.Options{ExtendWrites: true})
}

// TraceResult is the outcome of the element-level trace simulation.
type TraceResult = sim.Result

// SimulateTrace validates an assignment with the element-level trace
// simulator, meant for down-scaled programs; maxAccesses bounds the
// trace (0 = simulator default; negative is an error).
func SimulateTrace(a *Assignment, maxAccesses int64) (*TraceResult, error) {
	return sim.Trace(a, sim.Options{MaxAccesses: maxAccesses})
}

// DMATimeline is the outcome of the event-driven DMA simulation.
type DMATimeline = dmasim.Result

// SimulateDMA replays a prefetch plan on the event-driven DMA
// timeline simulator, cross-checking the analytical stall model.
func SimulateDMA(plan *Plan) (*DMATimeline, error) { return dmasim.Simulate(plan) }

// Layout computes the concrete address layout of every memory layer
// of an assignment (the in-place address mapper).
func Layout(a *Assignment) ([]*LayerMap, error) { return layout.Map(a) }

// SweepL1 sweeps on-chip sizes for one program on the two-level
// experiment platform, running the full flow at every point. A nil
// or empty sizes slice means the standard 256 B .. 64 KiB sweep; a
// non-positive size is rejected with a typed *OptionError naming the
// Sizes field. Engine, objective, policy, TE and progress options all
// apply; platform options are ignored (the sweep constructs one
// platform per size). The program is compiled once (or reused via
// WithWorkspace) and the points are evaluated concurrently over a
// pool of WithWorkers goroutines. Inside a parallel sweep each
// point's search runs on one worker; the chained branch-and-bound
// searches run one at a time and keep the whole budget. Results are
// identical to a sequential sweep at every worker count. SweepL1
// returns ctx.Err() promptly when ctx is cancelled.
func SweepL1(ctx context.Context, p *Program, sizes []int64, opts ...Option) (*Sweep, error) {
	cfg := newConfig(opts)
	if cfg.err != nil {
		return nil, cfg.err
	}
	for _, size := range sizes {
		if size <= 0 {
			return nil, &OptionError{Field: "Sizes", Reason: fmt.Sprintf("capacity %d bytes, must be positive", size)}
		}
	}
	ws, err := cfg.compiled(p)
	if err != nil {
		return nil, err
	}
	return explore.Run(ctx, ws, sizes, cfg.Config)
}

// DefaultSweepSizes is the standard L1 sweep: 256 B to 64 KiB in
// half-power-of-two steps (the powers of two plus their midpoints,
// 17 points).
func DefaultSweepSizes() []int64 { return explore.DefaultSizes() }

// ParetoFrontier filters points down to the non-dominated set.
func ParetoFrontier(points []ParetoPoint) []ParetoPoint { return pareto.Frontier(points) }

// ParetoRender renders points as an aligned text table.
func ParetoRender(points []ParetoPoint) string { return pareto.Render(points) }

// Partition splits a shared scratchpad budget across tasks, running
// the flow per candidate split (the future-work multi-task mode).
// Search options (engine, objective, policy, workers, progress)
// apply; platform options are ignored — the partitioner constructs
// the candidate platforms itself, sweeping each task's sizes like
// SweepL1. When ctx is cancelled Partition returns promptly with an
// error wrapping ctx.Err().
func Partition(ctx context.Context, tasks []Task, budget int64, opts ...Option) (*MultiTaskPlan, error) {
	cfg := newConfig(opts)
	if cfg.err != nil {
		return nil, cfg.err
	}
	return multitask.Partition(ctx, tasks, budget, cfg.Search)
}

// Figure2 renders the paper's performance figure for a set of
// application results.
func Figure2(results []AppResult) string { return report.Figure2(results) }

// Figure3 renders the paper's energy figure.
func Figure3(results []AppResult) string { return report.Figure3(results) }

// ReportSummary renders the headline claims for a set of results.
func ReportSummary(results []AppResult) string { return report.Summary(results) }

// ReportCSV renders results as machine-readable CSV.
func ReportCSV(results []AppResult) string { return report.CSV(results) }
