package mhla

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Job is one unit of batch work: a program plus the options of its
// flow run.
type Job struct {
	// Label identifies the job in results and reports.
	Label string
	// Program is the application model to run.
	Program *Program
	// Options configure the job's run; they apply after the
	// Explorer-wide options.
	Options []Option
}

// JobResult is the outcome of one batch job. Exactly one of Result
// and Err is set.
type JobResult struct {
	// Label is the job's label, copied through for reporting.
	Label string
	// Result is the flow outcome on success.
	Result *Result
	// Err captures the job's own failure; a cancelled batch marks
	// unfinished jobs with the context error.
	Err error
}

// Explorer fans batch jobs out over a worker pool. The zero value is
// ready to use: it runs GOMAXPROCS workers with no shared options.
type Explorer struct {
	// Options apply to every job, before the job's own options. Their
	// WithWorkers sizes the job pool (0 means GOMAXPROCS). When more
	// than one job runs at a time, each job's search runs on one
	// worker (WithWorkers(1) is applied after the job's options);
	// with a pool of one, the job's own WithWorkers applies. Results
	// are identical either way.
	Options []Option
	// Progress, when non-nil, is called after each job finishes with
	// the completed and total job counts. It runs on worker
	// goroutines and must be safe for concurrent use.
	Progress func(done, total int)
}

// Explore runs the jobs and returns one result per job, in job order
// regardless of worker scheduling. Per-job failures are captured in
// the corresponding JobResult and do not stop the batch. When ctx is
// cancelled Explore returns promptly with ctx.Err(); jobs not
// finished by then carry the context error.
//
// Explore memoizes workspaces by program identity: the first job of
// each distinct *Program compiles it (on its worker goroutine —
// distinct programs compile concurrently) and every later job of the
// same program reuses the result, so a Grid of one program across
// many sizes and objectives analyzes the program a single time. Jobs
// that already carry an explicit WithWorkspace option (Explorer-wide
// or per job) use theirs and skip the memoization entirely.
func (e *Explorer) Explore(ctx context.Context, jobs []Job) ([]JobResult, error) {
	results := make([]JobResult, len(jobs))
	for i, job := range jobs {
		results[i] = JobResult{Label: job.Label}
	}
	if len(jobs) == 0 {
		return results, ctx.Err()
	}

	workers := newConfig(e.Options).Search.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	cache := newWorkspaceCache()
	next := make(chan int)
	var wg sync.WaitGroup
	var done atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				job := jobs[i]
				opts := make([]Option, 0, len(e.Options)+len(job.Options)+1)
				opts = append(opts, e.Options...)
				opts = append(opts, job.Options...)
				// Invalid options fall through to Run untouched, which
				// surfaces the usual per-job validation error.
				if probe := newConfig(opts); probe.err == nil {
					// Memoize only when the job does not carry its own
					// workspace; a failed compile falls through to Run
					// too.
					if probe.workspace == nil {
						if ws := cache.get(job.Program); ws != nil {
							opts = append([]Option{WithWorkspace(ws)}, opts...)
						}
					}
					// Parallel jobs already fill the pool; nested
					// search pools would only multiply.
					if workers > 1 {
						opts = append(opts, WithWorkers(1))
					}
				}
				res, err := Run(ctx, job.Program, opts...)
				results[i] = JobResult{Label: job.Label, Result: res, Err: err}
				if e.Progress != nil {
					e.Progress(int(done.Add(1)), len(jobs))
				}
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	// Jobs never dispatched (the feed loop stopped on cancellation)
	// have neither a result nor an error yet; mark them so every
	// JobResult upholds the one-of-Result-and-Err contract.
	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Result == nil && results[i].Err == nil {
				results[i].Err = err
			}
		}
	}
	return results, ctx.Err()
}

// workspaceCache memoizes compiled workspaces by program identity for
// one batch. Each program compiles at most once — the first caller
// compiles (concurrent callers of the same program wait on its once;
// distinct programs compile in parallel on their worker goroutines) —
// and a failed compile is cached as nil so later jobs fall through to
// Run's own per-job validation error.
type workspaceCache struct {
	mu      sync.Mutex
	entries map[*Program]*workspaceEntry
}

type workspaceEntry struct {
	once sync.Once
	ws   *Workspace
}

func newWorkspaceCache() *workspaceCache {
	return &workspaceCache{entries: make(map[*Program]*workspaceEntry)}
}

func (c *workspaceCache) get(p *Program) *Workspace {
	if p == nil {
		return nil
	}
	c.mu.Lock()
	e := c.entries[p]
	if e == nil {
		e = &workspaceEntry{}
		c.entries[p] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if ws, err := Compile(p); err == nil {
			e.ws = ws
		}
	})
	return e.ws
}

// GridApp names one program of a batch grid.
type GridApp struct {
	// Name labels the application in job labels and reports.
	Name string
	// Program is the application model.
	Program *Program
}

// Grid is an application x L1-size x objective cross product, the
// batch shape of a design-space exploration.
type Grid struct {
	// Apps are the applications to explore.
	Apps []GridApp
	// L1Sizes are the on-chip capacities to evaluate; empty means
	// DefaultSweepSizes().
	L1Sizes []int64
	// Objectives are the search objectives to evaluate; empty means
	// {Energy}.
	Objectives []Objective
	// Options apply to every expanded job (engine, policy, ...).
	Options []Option
}

// Jobs expands the grid into its deterministic job list: apps sorted
// by name, then sizes ascending, then objectives in the given order.
// Labels have the form "app/l1=4096/energy".
func (g Grid) Jobs() []Job {
	apps := append([]GridApp(nil), g.Apps...)
	sort.SliceStable(apps, func(i, j int) bool { return apps[i].Name < apps[j].Name })
	sizes := append([]int64(nil), g.L1Sizes...)
	if len(sizes) == 0 {
		sizes = DefaultSweepSizes()
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	objectives := g.Objectives
	if len(objectives) == 0 {
		objectives = []Objective{Energy}
	}

	var jobs []Job
	for _, app := range apps {
		for _, l1 := range sizes {
			for _, obj := range objectives {
				opts := make([]Option, 0, len(g.Options)+2)
				opts = append(opts, g.Options...)
				opts = append(opts, WithL1(l1), WithObjective(obj))
				jobs = append(jobs, Job{
					Label:   fmt.Sprintf("%s/l1=%d/%s", app.Name, l1, obj),
					Program: app.Program,
					Options: opts,
				})
			}
		}
	}
	return jobs
}

// BatchCSV renders batch results as comma-separated values with a
// header, one row per job in result order. Failed jobs carry their
// error in the last column with empty data columns.
func BatchCSV(results []JobResult) string {
	var b strings.Builder
	b.WriteString("job,orig_cycles,mhla_cycles,te_cycles,ideal_cycles,orig_pj,mhla_pj,error\n")
	for _, r := range results {
		if r.Err != nil {
			// RFC 4180 quoting: wrap in quotes, double inner quotes.
			fmt.Fprintf(&b, "%s,,,,,,,\"%s\"\n", r.Label,
				strings.ReplaceAll(r.Err.Error(), `"`, `""`))
			continue
		}
		res := r.Result
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%.0f,%.0f,\n",
			r.Label, res.Original.Cycles, res.MHLA.Cycles, res.TE.Cycles, res.Ideal.Cycles,
			res.Original.Energy, res.MHLA.Energy)
	}
	return b.String()
}

// BatchReport renders batch results as an aligned table, one row per
// job in result order (deterministic for a deterministic job list).
// Failed jobs render their error in place of the operating points.
func BatchReport(results []JobResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %14s %16s %9s %9s\n", "job", "te_cycles", "mhla_pj", "cyc_pct", "pj_pct")
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(&b, "%-32s error: %v\n", r.Label, r.Err)
			continue
		}
		g := r.Result.Gains()
		fmt.Fprintf(&b, "%-32s %14d %16.0f %8.1f%% %8.1f%%\n",
			r.Label, r.Result.TE.Cycles, r.Result.MHLA.Energy,
			100*g.TECycles, 100*g.MHLAEnergy)
	}
	return b.String()
}
