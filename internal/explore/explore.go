// Package explore drives the trade-off exploration of the paper: it
// sweeps the on-chip layer size, runs the full MHLA+TE flow at every
// point, and reports the resulting (size, energy, time) trade-off
// curve and its Pareto frontier. This is the "thorough trade-off
// exploration for different memory layer sizes" the technique claims
// as its purpose.
//
// The sweep runs over the program's compiled workspace (validation,
// data-reuse analysis, lifetime tables — see workspace.Compile) and
// evaluates the sweep points concurrently over a bounded worker pool:
// every point shares the immutable workspace and rebuilds only the
// platform-dependent half of the flow. Results are deterministic — Points come back in
// size order and each point's Result is independent of scheduling.
package explore

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mhla/internal/assign"
	"mhla/internal/core"
	"mhla/internal/energy"
	"mhla/internal/pareto"
	"mhla/internal/workspace"
)

// DefaultSizes returns the standard L1 sweep: 256 B to 64 KiB in
// half-power-of-two steps (17 points — the powers of two plus their
// midpoints). The finer grid resolves the knees of the trade-off
// curve between the power-of-two jumps; the incremental warm-started
// sweep keeps the denser default affordable.
func DefaultSizes() []int64 {
	var sizes []int64
	for c := int64(256); c <= 64*1024; c *= 2 {
		sizes = append(sizes, c)
		if c < 64*1024 {
			sizes = append(sizes, c+c/2)
		}
	}
	return sizes
}

// Point is one evaluated sweep point.
type Point struct {
	// L1 is the on-chip capacity of the point.
	L1 int64
	// Result is the full flow outcome at this size.
	Result *core.Result
}

// Sweep is the outcome of an exploration.
type Sweep struct {
	// Program names the explored application.
	Program string
	// Points are the evaluated sizes, in the order they were given.
	Points []Point
}

// Run sweeps the given on-chip sizes over a compiled workspace using
// the two-level experiment platform; nil or empty sizes mean
// DefaultSizes. The program-side analysis is shared read-only by
// every point. cfg is the per-point flow configuration:
// cfg.Platform is ignored (the sweep constructs the two-level
// platform per size), and cfg.Search.Progress, which receives every
// point's phase entries and engine snapshots, is serialized across
// points, so it never runs concurrently with itself.
//
// cfg.Search.Workers is the sweep's one worker budget (<= 0 means
// GOMAXPROCS): it sizes the point pool, capped at the point count.
// When more than one independent point runs at a time, each point's
// search runs on one worker; the chained branch-and-bound searches
// run one at a time and keep the whole budget. Results are identical
// either way, at every worker count.
//
// One worker pool claims the points in ascending-size order (ties
// keep input order). With the branch-and-bound engine the sweep is
// one incremental search: each point waits for its predecessor's
// optimum on a one-slot handoff, searches with it as the warm-start
// incumbent (see assign.Options.Incumbent), passes its own optimum on
// and only then runs its time-extension/evaluation tail, which
// overlaps the next point's search. Any Incumbent configured on
// cfg.Search is overwritten by the chain. Every other engine skips
// the handoff, so its points run independently.
//
// The returned Points are in input size order and byte-identical to a
// sequential fresh-per-point sweep at every worker count — warm-start
// chaining only shrinks each point's explored state count
// (Result.SearchStates), and the chain order is a pure function of
// (workspace, sizes), never of scheduling. A failing point stops
// further points from being claimed (points already claimed finish),
// and the first failure in ascending-size order is returned as the
// sweep error, for every engine: each point's outcome is a pure
// function of (workspace, size), so the reported error is
// deterministic at every worker count. When ctx is cancelled the
// sweep returns promptly with ctx.Err().
func Run(ctx context.Context, ws *workspace.Workspace, sizes []int64, cfg core.Config) (*Sweep, error) {
	if ws == nil {
		return nil, fmt.Errorf("explore: nil workspace")
	}
	if err := cfg.Search.Validate(); err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	if len(sizes) == 0 {
		sizes = DefaultSizes()
	}
	// Per-point flows run on worker goroutines; serialize the
	// caller's progress callback so it never races with itself.
	if cfg.Search.Progress != nil {
		var mu sync.Mutex
		inner := cfg.Search.Progress
		cfg.Search.Progress = func(sp assign.Progress) {
			mu.Lock()
			defer mu.Unlock()
			inner(sp)
		}
	}

	workers := cfg.Search.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sizes) {
		workers = len(sizes)
	}
	// The warm-start chain pays off exactly when searches prune — the
	// branch-and-bound engine. Its searches run one at a time and keep
	// the whole budget; independent points already fill the pool, so
	// nested search pools would only multiply.
	chained := cfg.Search.Engine == assign.BranchBound
	if !chained && workers > 1 {
		cfg.Search.Workers = 1
	}

	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sizes[order[a]] < sizes[order[b]] })

	results := make([]*core.Result, len(sizes))
	errs := make([]error, len(sizes))
	// handoff holds the chain's incumbent. A chained worker takes it
	// before claiming a point and puts one back exactly once — after
	// its search, or on exit — so claims and searches follow the chain
	// order and no receive can wait on a worker that has returned.
	handoff := make(chan *assign.Assignment, 1)
	handoff <- nil
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pcfg := cfg
				if chained {
					pcfg.Search.Incumbent = <-handoff
				}
				// Check the stop conditions before claiming: a claimed
				// point always runs, so every recorded error is the
				// point's own and, claims ascending, every lower point
				// was evaluated too.
				k := len(order)
				if !failed.Load() && ctx.Err() == nil {
					k = int(next.Add(1)) - 1
				}
				if k >= len(order) {
					if chained {
						handoff <- pcfg.Search.Incumbent
					}
					return
				}
				i := order[k]
				pcfg.Platform = energy.TwoLevel(sizes[i])
				pending, err := core.Begin(ctx, ws, pcfg)
				if chained {
					// Pass the optimum on before finishing, so the next
					// search overlaps this point's tail; a failed search
					// stops the chain before the slot is released.
					var optimum *assign.Assignment
					if err == nil {
						optimum = pending.Assignment()
					} else {
						failed.Store(true)
					}
					handoff <- optimum
				}
				if err == nil {
					results[i], err = pending.Finish(ctx)
				}
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, i := range order {
		if errs[i] != nil {
			return nil, fmt.Errorf("explore: size %d: %w", sizes[i], errs[i])
		}
	}
	sw := &Sweep{Program: ws.Program.Name}
	for i, res := range results {
		if res == nil {
			// Defensive: a point was skipped without any point
			// reporting a failure and without ctx being cancelled.
			return nil, fmt.Errorf("explore: size %d: %w", sizes[i], context.Canceled)
		}
		sw.Points = append(sw.Points, Point{L1: sizes[i], Result: res})
	}
	return sw, nil
}

// TEPoints returns the MHLA+TE operating points as Pareto candidates.
func (s *Sweep) TEPoints() []pareto.Point {
	pts := make([]pareto.Point, len(s.Points))
	for i, p := range s.Points {
		pts[i] = pareto.Point{
			Label:  fmt.Sprintf("l1-%d", p.L1),
			Size:   p.L1,
			Cycles: p.Result.TE.Cycles,
			Energy: p.Result.TE.Energy,
		}
	}
	return pts
}

// Frontier returns the Pareto frontier of the MHLA+TE points.
func (s *Sweep) Frontier() []pareto.Point { return pareto.Frontier(s.TEPoints()) }

// CSV renders the sweep as comma-separated values with a header, one
// row per size: the four operating points in cycles, the energies,
// and the engine that produced the point's assignment.
func (s *Sweep) CSV() string {
	var b strings.Builder
	b.WriteString("app,l1_bytes,orig_cycles,mhla_cycles,te_cycles,ideal_cycles,orig_pj,mhla_pj,engine\n")
	for _, p := range s.Points {
		r := p.Result
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%.0f,%.0f,%s\n",
			s.Program, p.L1,
			r.Original.Cycles, r.MHLA.Cycles, r.TE.Cycles, r.Ideal.Cycles,
			r.Original.Energy, r.MHLA.Energy, r.Engine)
	}
	return b.String()
}

// sweepJSON mirrors the modelio schema conventions (snake_case keys,
// one object per point) for machine consumption of a sweep.
type sweepJSON struct {
	App    string      `json:"app"`
	Points []pointJSON `json:"points"`
}

type pointJSON struct {
	L1Bytes int64 `json:"l1_bytes"`
	ResultFields
}

// ResultFields is the shared snake_case encoding of one flow result —
// the common core of a Sweep.JSON point and the facade's ResultJSON,
// defined once so the two wire schemas cannot drift apart.
type ResultFields struct {
	OrigCycles   int64   `json:"orig_cycles"`
	MHLACycles   int64   `json:"mhla_cycles"`
	TECycles     int64   `json:"te_cycles"`
	IdealCycles  int64   `json:"ideal_cycles"`
	OrigPJ       float64 `json:"orig_pj"`
	MHLAPJ       float64 `json:"mhla_pj"`
	SearchStates int     `json:"search_states"`
	TEApplicable bool    `json:"te_applicable"`
	// Engine is the engine that produced the point's assignment —
	// for the portfolio engine, the member that won the race.
	Engine string `json:"engine"`
}

// ResultFieldsOf extracts the shared wire fields of a flow result.
func ResultFieldsOf(r *core.Result) ResultFields {
	return ResultFields{
		OrigCycles:   r.Original.Cycles,
		MHLACycles:   r.MHLA.Cycles,
		TECycles:     r.TE.Cycles,
		IdealCycles:  r.Ideal.Cycles,
		OrigPJ:       r.Original.Energy,
		MHLAPJ:       r.MHLA.Energy,
		SearchStates: r.SearchStates,
		TEApplicable: r.Plan != nil && r.Plan.Applicable,
		Engine:       r.Engine.String(),
	}
}

// JSON renders the sweep as indented JSON following the modelio
// naming conventions, one object per sweep point, for external
// tooling (plotting, regression tracking).
func (s *Sweep) JSON() ([]byte, error) {
	out := sweepJSON{App: s.Program, Points: make([]pointJSON, 0, len(s.Points))}
	for _, p := range s.Points {
		out.Points = append(out.Points, pointJSON{L1Bytes: p.L1, ResultFields: ResultFieldsOf(p.Result)})
	}
	return json.MarshalIndent(out, "", "  ")
}

// String renders a compact sweep table with normalized values.
func (s *Sweep) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exploration of %s\n", s.Program)
	fmt.Fprintf(&b, "%10s %9s %9s %9s %9s\n", "l1", "mhla", "te", "ideal", "energy")
	for _, p := range s.Points {
		g := p.Result.Gains()
		fmt.Fprintf(&b, "%10d %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			p.L1, 100*g.MHLACycles, 100*g.TECycles, 100*g.IdealCycles, 100*g.MHLAEnergy)
	}
	return b.String()
}
