// Package core orchestrates the complete MHLA-with-time-extensions
// flow of the paper. External consumers use the pkg/mhla facade; the
// direct entry point runs over a compiled workspace:
//
//	ws, err := workspace.Compile(program)
//	result, err := core.Run(ctx, ws, core.Config{Platform: energy.TwoLevel(4096)})
//
// The flow is the paper's two-step exploration:
//
//  1. Assignment step (internal/assign): data-reuse analysis, then
//     layer assignment and allocation under the in-place size
//     estimator.
//  2. Time-extension step (internal/te): per-block-transfer
//     prefetch scheduling (Figure 1), applicable when the platform
//     has a DMA engine.
//
// Run evaluates the four operating points reported by the paper's
// figures: Original (out-of-the-box, everything off-chip), MHLA
// (step 1), MHLA+TE (both steps) and Ideal (every block transfer
// hidden — the "0 wait cycles" bound).
package core

import (
	"context"
	"fmt"

	"mhla/internal/assign"
	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/reuse"
	"mhla/internal/sim"
	"mhla/internal/te"
	"mhla/internal/workspace"
)

// Config configures a Run.
type Config struct {
	// Platform is the target architecture (required).
	Platform *platform.Platform
	// Search configures the assignment step; the zero value is the
	// paper configuration (see assign.Options). Its Progress callback,
	// when non-nil, receives the flow's phase entries as well as the
	// engine's snapshots.
	Search assign.Options
	// DisableTE skips the time-extension step even when a DMA engine
	// exists (the MHLA+TE point then equals MHLA).
	DisableTE bool
}

// Result is the outcome of the full exploration.
type Result struct {
	// Program and Platform identify the experiment.
	Program  *model.Program
	Platform *platform.Platform
	// Analysis is the data-reuse analysis.
	Analysis *reuse.Analysis
	// Assignment is the MHLA step-1 decision.
	Assignment *assign.Assignment
	// Plan is the time-extension step-2 decision (empty and
	// non-applicable without a DMA engine or with DisableTE).
	Plan *te.Plan

	// The four evaluated operating points.
	Original assign.Cost
	MHLA     assign.Cost
	TE       assign.Cost
	Ideal    assign.Cost

	// SearchStates counts states evaluated by the assignment search.
	SearchStates int
	// SearchNodes counts the depth-first nodes an exact search walked
	// (assign.Result.Nodes; 0 for the other engines).
	SearchNodes int
	// Engine is the engine that produced the assignment — the
	// configured engine for plain searches, the winning member for
	// the portfolio.
	Engine assign.Engine
	// Portfolio holds the portfolio engine's per-member provenance
	// (nil for plain engines).
	Portfolio []assign.EngineRun
}

// Run executes the full flow over a compiled workspace (see
// workspace.Compile): program validation, the data-reuse analysis and
// the program-side tables are reused as-is, and only the
// platform-dependent work — the assignment search, the time-extension
// scheduling, the operating point evaluation — runs per call. It
// honors ctx: when it is cancelled mid-flow (including deep inside a
// long assignment search) Run returns promptly with ctx.Err(). The
// workspace is immutable, so the concurrent L1 sweep
// (internal/explore) and the batch Explorer (pkg/mhla) fan many Run
// calls out against one shared workspace.
func Run(ctx context.Context, ws *workspace.Workspace, cfg Config) (*Result, error) {
	pending, err := Begin(ctx, ws, cfg)
	if err != nil {
		return nil, err
	}
	return pending.Finish(ctx)
}

// Pending is a flow paused at the seam between the two steps: the
// assignment search (step 1) has run, the time-extension scheduling
// and the operating-point evaluation (Finish) have not. The seam
// exists for the incremental L1 sweep: the assignment of one sweep
// point becomes the next point's warm-start incumbent
// (assign.Options.Incumbent) as soon as Begin returns, while the
// platform-independent finishing work of earlier points overlaps the
// later points' searches on the sweep's worker pool. A Pending is
// used by at most one goroutine at a time; Finish consumes it.
type Pending struct {
	cfg Config
	res *Result
}

// Assignment is the step-1 decision, available before Finish — the
// warm-start handoff of the incremental sweep.
func (p *Pending) Assignment() *assign.Assignment { return p.res.Assignment }

// Begin runs the flow through the assignment step (step 1) over a
// compiled workspace and pauses. Run is Begin + Finish, so both
// halves are one code path; callers that need nothing between the
// steps call Run. A platform that fails its own Validate (e.g. an L1
// so large its energy model overtakes the background layer) is
// rejected by assign.Search with a typed
// *assign.OptionError{Field: "Platform"}.
func Begin(ctx context.Context, ws *workspace.Workspace, cfg Config) (*Pending, error) {
	if ws == nil {
		return nil, fmt.Errorf("core: nil workspace")
	}
	if cfg.Platform == nil {
		return nil, fmt.Errorf("core: no platform configured")
	}
	// The analyze phase is entered for a uniform progress stream even
	// though the compiled analysis makes it instantaneous.
	if err := cfg.enter(ctx, assign.PhaseAnalyze); err != nil {
		return nil, err
	}
	if err := cfg.enter(ctx, assign.PhaseAssign); err != nil {
		return nil, err
	}
	sr, err := assign.Search(ctx, ws, cfg.Platform, cfg.Search)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Pending{cfg: cfg, res: &Result{
		Program:      ws.Program,
		Platform:     cfg.Platform,
		Analysis:     ws.Analysis,
		Assignment:   sr.Assignment,
		Original:     sr.Baseline,
		MHLA:         sr.Cost,
		SearchStates: sr.States,
		SearchNodes:  sr.Nodes,
		Engine:       sr.Engine,
		Portfolio:    sr.Portfolio,
	}}, nil
}

// enter marks the flow entering a phase: it fails with ctx.Err() once
// ctx is cancelled and otherwise reports the phase to
// cfg.Search.Progress. The context is explicit because the two flow
// halves (Begin, Finish) may run under different calls.
func (cfg Config) enter(ctx context.Context, ph assign.Phase) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if cfg.Search.Progress != nil {
		cfg.Search.Progress(assign.Progress{Phase: ph})
	}
	return nil
}

// Finish runs the remaining flow of a paused point: the
// time-extension scheduling (step 2) and the operating-point
// evaluation. It consumes the Pending.
func (p *Pending) Finish(ctx context.Context) (*Result, error) {
	cfg, res := p.cfg, p.res

	// Step 2: time extensions.
	if err := cfg.enter(ctx, assign.PhaseExtend); err != nil {
		return nil, err
	}
	if cfg.DisableTE {
		res.Plan = &te.Plan{Assignment: res.Assignment, Applicable: false}
		res.TE = res.MHLA
	} else {
		plan, err := te.Extend(res.Assignment)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		res.Plan = plan
		if plan.Applicable {
			res.TE = plan.Assignment.Evaluate(assign.EvalOptions{Hidden: plan.Hidden()})
		} else {
			res.TE = res.MHLA
		}
	}

	// Ideal: every block transfer hidden.
	if err := cfg.enter(ctx, assign.PhaseEvaluate); err != nil {
		return nil, err
	}
	res.Ideal = res.Assignment.Evaluate(assign.EvalOptions{Ideal: true})
	return res, nil
}

// Gains summarises a result the way the paper's figures do: values
// are fractions of the Original (1.0 = no change, lower is better).
type Gains struct {
	MHLACycles  float64 // Figure 2, MHLA bar
	TECycles    float64 // Figure 2, MHLA+TE bar
	IdealCycles float64 // Figure 2, ideal bar
	MHLAEnergy  float64 // Figure 3, MHLA bar
}

// Gains normalizes the result against the Original point.
func (r *Result) Gains() Gains {
	oc := float64(r.Original.Cycles)
	return Gains{
		MHLACycles:  float64(r.MHLA.Cycles) / oc,
		TECycles:    float64(r.TE.Cycles) / oc,
		IdealCycles: float64(r.Ideal.Cycles) / oc,
		MHLAEnergy:  r.MHLA.Energy / r.Original.Energy,
	}
}

// TEBoost returns the extra performance gain of the TE step over
// MHLA alone, as a fraction of the MHLA cycles (the paper's "up to
// 33%").
func (r *Result) TEBoost() float64 {
	if r.MHLA.Cycles == 0 {
		return 0
	}
	return 1 - float64(r.TE.Cycles)/float64(r.MHLA.Cycles)
}

// Verify cross-checks the analytical MHLA evaluation against the
// element-level trace simulator. It is intended for down-scaled
// programs; maxAccesses bounds the trace (0 = simulator default;
// negative is an error). Per-layer accesses, every stream's bytes and
// transfer count and the stream set must match exactly, energy to
// float rounding.
func (r *Result) Verify(maxAccesses int64) error {
	tr, err := sim.Trace(r.Assignment, sim.Options{MaxAccesses: maxAccesses})
	if err != nil {
		return fmt.Errorf("core: verify: %w", err)
	}
	for i, n := range r.MHLA.PerLayerAccesses {
		if tr.LayerAccesses[i] != n {
			return fmt.Errorf("core: verify: layer %d accesses differ: trace %d, analytic %d",
				i, tr.LayerAccesses[i], n)
		}
	}
	streams := r.Assignment.Streams()
	known := make(map[assign.StreamKey]bool, len(streams))
	for _, st := range streams {
		known[st.Key] = true
		if tr.TransferBytes[st.Key] != st.Count*st.Bytes {
			return fmt.Errorf("core: verify: stream %s bytes differ: trace %d, analytic %d",
				st.Key, tr.TransferBytes[st.Key], st.Count*st.Bytes)
		}
		if tr.TransferCount[st.Key] != st.Count {
			return fmt.Errorf("core: verify: stream %s transfer counts differ: trace %d, analytic %d",
				st.Key, tr.TransferCount[st.Key], st.Count)
		}
	}
	for key := range tr.TransferCount {
		if !known[key] {
			return fmt.Errorf("core: verify: trace stream %s is not an analytic stream", key)
		}
	}
	// The trace accumulates energy event by event; allow relative
	// float rounding over millions of additions.
	tol := 1e-9 * (1 + r.MHLA.Energy)
	if diff := tr.Energy - r.MHLA.Energy; diff > tol || diff < -tol {
		return fmt.Errorf("core: verify: energy differs: trace %v, analytic %v", tr.Energy, r.MHLA.Energy)
	}
	return nil
}

// Summary renders the four operating points like the paper's figures.
func (r *Result) Summary() string {
	g := r.Gains()
	s := fmt.Sprintf("%s on %s:\n", r.Program.Name, r.Platform.Name)
	s += fmt.Sprintf("  original  %12d cycles  %14.0f pJ\n", r.Original.Cycles, r.Original.Energy)
	s += fmt.Sprintf("  mhla      %12d cycles  %14.0f pJ  (%.0f%% cycles, %.0f%% energy)\n",
		r.MHLA.Cycles, r.MHLA.Energy, 100*g.MHLACycles, 100*g.MHLAEnergy)
	s += fmt.Sprintf("  mhla+te   %12d cycles  %14.0f pJ  (%.0f%% cycles, TE boost %.0f%%)\n",
		r.TE.Cycles, r.TE.Energy, 100*g.TECycles, 100*r.TEBoost())
	s += fmt.Sprintf("  ideal     %12d cycles  %14.0f pJ  (%.0f%% cycles)\n",
		r.Ideal.Cycles, r.Ideal.Energy, 100*g.IdealCycles)
	return s
}
