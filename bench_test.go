package mhla_test

// The benchmark harness regenerates every figure and headline claim
// of the paper's evaluation (see the experiment index in DESIGN.md):
//
//	BenchmarkFigure2/<app>     — normalized execution time of the four
//	                             operating points (original, MHLA,
//	                             MHLA+TE, ideal) per application
//	BenchmarkFigure3/<app>     — normalized memory energy per app
//	BenchmarkExploration/<app> — trade-off sweep over L1 sizes (E1)
//	BenchmarkAblation*         — design-choice ablations (A1..A6)
//	Benchmark<component>       — tool-performance microbenchmarks
//
// Everything drives the public pkg/mhla facade (plus internal/apps
// for the benchmark catalog). The reported custom metrics carry the
// figure data: e.g. "mhla_pct" is the MHLA execution time as a
// percentage of the original code (Figure 2's bar height). Run with:
//
//	go test -bench=. -benchmem
import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/progen"
	"mhla/internal/server"
	"mhla/pkg/mhla"
)

// runApp executes the full flow at paper scale on the app's figure
// configuration.
func runApp(b *testing.B, app apps.App, opts ...mhla.Option) *mhla.Result {
	b.Helper()
	opts = append([]mhla.Option{mhla.WithL1(app.L1)}, opts...)
	res, err := mhla.Run(context.Background(), app.Build(apps.Paper), opts...)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFigure2 regenerates the performance figure: for every
// application it reports the MHLA, MHLA+TE and ideal execution times
// as percentages of the original code, plus the TE boost over MHLA.
func BenchmarkFigure2(b *testing.B) {
	for _, app := range apps.All() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			var res *mhla.Result
			for i := 0; i < b.N; i++ {
				res = runApp(b, app)
			}
			g := res.Gains()
			b.ReportMetric(100*g.MHLACycles, "mhla_pct")
			b.ReportMetric(100*g.TECycles, "te_pct")
			b.ReportMetric(100*g.IdealCycles, "ideal_pct")
			b.ReportMetric(100*res.TEBoost(), "te_boost_pct")
		})
	}
}

// BenchmarkFigure3 regenerates the energy figure: the MHLA energy as
// a percentage of the original code (TE leaves energy unchanged, as
// in the paper).
func BenchmarkFigure3(b *testing.B) {
	for _, app := range apps.All() {
		app := app
		b.Run(app.Name, func(b *testing.B) {
			var res *mhla.Result
			for i := 0; i < b.N; i++ {
				res = runApp(b, app)
			}
			g := res.Gains()
			b.ReportMetric(100*g.MHLAEnergy, "energy_pct")
			if res.TE.Energy != res.MHLA.Energy {
				b.Fatalf("TE changed energy: %v -> %v", res.MHLA.Energy, res.TE.Energy)
			}
		})
	}
}

// BenchmarkExploration regenerates the trade-off exploration (E1):
// a sweep of the on-chip size, reporting the Pareto frontier size and
// the energy span across the sweep.
func BenchmarkExploration(b *testing.B) {
	for _, name := range []string{"me", "qsdpcm", "durbin"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var sw *mhla.Sweep
			for i := 0; i < b.N; i++ {
				var err error
				sw, err = mhla.SweepL1(context.Background(), app.Build(apps.Paper), mhla.DefaultSweepSizes())
				if err != nil {
					b.Fatal(err)
				}
			}
			front := sw.Frontier()
			b.ReportMetric(float64(len(sw.Points)), "sweep_points")
			b.ReportMetric(float64(len(front)), "frontier_points")
			minE, maxE := sw.Points[0].Result.TE.Energy, sw.Points[0].Result.TE.Energy
			for _, p := range sw.Points {
				if e := p.Result.TE.Energy; e < minE {
					minE = e
				} else if e > maxE {
					maxE = e
				}
			}
			b.ReportMetric(maxE/minE, "energy_spread_x")
		})
	}
}

// BenchmarkBatchExplorer measures the concurrent batch Explorer on an
// app x size x objective grid, reporting jobs and worker throughput.
func BenchmarkBatchExplorer(b *testing.B) {
	grid := mhla.Grid{
		L1Sizes:    []int64{512, 1024, 2048, 4096},
		Objectives: []mhla.Objective{mhla.Energy, mhla.Time},
	}
	for _, name := range []string{"me", "durbin", "sobel"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		grid.Apps = append(grid.Apps, mhla.GridApp{Name: app.Name, Program: app.Build(apps.Paper)})
	}
	jobs := grid.Jobs()
	var ex mhla.Explorer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := ex.Explore(context.Background(), jobs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs")
}

// BenchmarkAblationInplace quantifies the in-place (lifetime-aware)
// size estimation (A1). The effect binds where the per-phase buffers
// fit a layer only through lifetime sharing — for the multi-phase
// wavelet that window is around 6 KiB (at the figure sizes the
// buffers of these apps happen to fit even statically, so the
// comparison runs at the binding sizes).
func BenchmarkAblationInplace(b *testing.B) {
	cases := []struct {
		name string
		l1   int64
	}{
		{"wavelet", 6144},
		{"cavity", 7168},
		{"qsdpcm", 1024},
	}
	for _, c := range cases {
		app, err := apps.ByName(c.name)
		if err != nil {
			b.Fatal(err)
		}
		prog := app.Build(apps.Paper)
		b.Run(c.name, func(b *testing.B) {
			var with, without *mhla.Result
			for i := 0; i < b.N; i++ {
				var err error
				with, err = mhla.Run(context.Background(), prog, mhla.WithL1(c.l1))
				if err != nil {
					b.Fatal(err)
				}
				without, err = mhla.Run(context.Background(), prog, mhla.WithL1(c.l1), mhla.WithoutInPlace())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*with.Gains().MHLAEnergy, "inplace_energy_pct")
			b.ReportMetric(100*without.Gains().MHLAEnergy, "static_energy_pct")
		})
	}
}

// BenchmarkAblationPolicy quantifies inter-iteration reuse (A2):
// the slide transfer policy against full refetching.
func BenchmarkAblationPolicy(b *testing.B) {
	for _, name := range []string{"me", "sobel", "voice"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var slide, refetch *mhla.Result
			for i := 0; i < b.N; i++ {
				slide = runApp(b, app, mhla.WithPolicy(mhla.Slide))
				refetch = runApp(b, app, mhla.WithPolicy(mhla.Refetch))
			}
			b.ReportMetric(100*slide.Gains().MHLAEnergy, "slide_energy_pct")
			b.ReportMetric(100*refetch.Gains().MHLAEnergy, "refetch_energy_pct")
		})
	}
}

// BenchmarkAblationSearch compares the greedy engine of the MHLA tool
// against the branch-and-bound optimum (A3) on down-scaled workloads
// where the exact engine is tractable.
func BenchmarkAblationSearch(b *testing.B) {
	for _, name := range []string{"durbin", "sobel", "voice"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			prog := app.Build(apps.Test)
			plat := mhla.TwoLevel(app.L1)
			an, err := mhla.Analyze(prog)
			if err != nil {
				b.Fatal(err)
			}
			var greedy, optimal *mhla.SearchResult
			for i := 0; i < b.N; i++ {
				greedy, err = mhla.Search(context.Background(), an, plat)
				if err != nil {
					b.Fatal(err)
				}
				optimal, err = mhla.Search(context.Background(), an, plat, mhla.WithEngine(mhla.BnB))
				if err != nil {
					b.Fatal(err)
				}
			}
			if !optimal.Complete {
				b.Fatal("branch-and-bound incomplete")
			}
			b.ReportMetric(greedy.Cost.Energy/optimal.Cost.Energy, "greedy_vs_opt_x")
			b.ReportMetric(float64(greedy.States), "greedy_states")
			b.ReportMetric(float64(optimal.States), "bnb_states")
		})
	}
}

// BenchmarkParallelBnB measures the parallel branch-and-bound engine
// at 1, 2, 4 and 8 workers on the heaviest scenario of the scaled-up
// progen family (seed 7: a ~7M-leaf decision space). Results are
// byte-identical across worker counts by construction; the benchmark
// verifies that on every iteration and reports the states explored and
// the depth-first nodes walked.
// Wall-clock speedup over workers=1 requires actual cores — on a
// single-CPU host the worker counts time-slice and tie. Allocations
// are reported because the incremental apply/undo engine's headline
// property is a steady-state DFS that allocates nothing (all per-op
// allocations are one-time setup: decision tables, the greedy seed
// and one searchState per subtree task). Measured numbers are
// recorded in BENCH_PARALLEL_BNB.json (clone-per-node engine) and
// BENCH_INCREMENTAL_BNB.json (incremental engine, before/after).
func BenchmarkParallelBnB(b *testing.B) {
	cfg := progen.Config{MaxArrays: 4, MaxBlocks: 3, MaxNests: 3, MaxAccesses: 4, MaxSpace: 40_000_000}
	sc := cfg.Generate(7)
	an, err := mhla.Analyze(sc.Program)
	if err != nil {
		b.Fatal(err)
	}
	var ref *mhla.SearchResult
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var res *mhla.SearchResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = mhla.Search(context.Background(), an, sc.Platform,
					mhla.WithEngine(mhla.BnB), mhla.WithWorkers(w),
					mhla.WithObjective(sc.Options.Objective),
					mhla.WithPolicy(sc.Options.Policy),
					mhla.WithMaxStates(40_000_000))
				if err != nil {
					b.Fatal(err)
				}
			}
			if w == 1 {
				ref = res
			} else if ref != nil && (res.States != ref.States || res.Nodes != ref.Nodes ||
				res.Cost.Cycles != ref.Cost.Cycles || res.Cost.Energy != ref.Cost.Energy) {
				b.Fatalf("workers=%d result diverged from workers=1", w)
			}
			b.ReportMetric(float64(res.States), "bnb_states")
			b.ReportMetric(float64(res.Nodes), "bnb_nodes")
			b.ReportMetric(float64(sc.Space), "space_leaves")
		})
	}
}

// sweepJobsPoolStates is the branch-and-bound state count of one pass
// of BenchmarkSweepJobsPool: the explored tree fixes it, so any change
// to it is a change to what the search explores.
const sweepJobsPoolStates = 169_453

// sweepJobsPoolNodes is the depth-first node count of one pass of
// BenchmarkSweepJobsPool: the explored tree and the bound fix it, so a
// change to it with sweepJobsPoolStates unchanged is a change to how
// tightly the search bounds subtrees.
const sweepJobsPoolNodes = 1_063_621

// BenchmarkSweepJobsPool runs branch-and-bound L1 sweeps (default
// ladder, MaxStates 10M) over the program pool of cmd/mhla-bench's
// sweep-jobs workload: the first 16 scenarios of its generator config
// with a decision space of at least 1e5. The constants are duplicated
// because cmd/mhla-bench is its own module. One op is one pass over
// the pool, at one worker and at the default worker count; states/op
// is the state count summed over every point of every sweep and is
// checked against sweepJobsPoolStates, nodes/op the depth-first node
// count summed the same way and checked against sweepJobsPoolNodes.
// Measured numbers are recorded in BENCH_INCREMENTAL_BNB.json.
func BenchmarkSweepJobsPool(b *testing.B) {
	gen := progen.Config{MaxArrays: 5, MaxBlocks: 3, MaxNests: 3, MaxDepth: 4, MaxAccesses: 4, MaxSpace: 2e7}
	var pool []*mhla.Workspace
	for seed := int64(1); len(pool) < 16; seed++ {
		sc := gen.Generate(seed)
		if sc.Space < 100_000 {
			continue
		}
		ws, err := mhla.Compile(sc.Program)
		if err != nil {
			b.Fatal(err)
		}
		pool = append(pool, ws)
	}
	for _, w := range []int{1, 0} {
		name := "workers=default"
		if w > 0 {
			name = fmt.Sprintf("workers=%d", w)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var states, nodes int
			for i := 0; i < b.N; i++ {
				states, nodes = 0, 0
				for _, ws := range pool {
					sw, err := mhla.SweepL1(context.Background(), nil, nil, mhla.WithWorkspace(ws),
						mhla.WithEngine(mhla.BnB), mhla.WithMaxStates(10_000_000), mhla.WithWorkers(w))
					if err != nil {
						b.Fatal(err)
					}
					for _, pt := range sw.Points {
						states += pt.Result.SearchStates
						nodes += pt.Result.SearchNodes
					}
				}
			}
			if states != sweepJobsPoolStates {
				b.Fatalf("explored %d states per pass, want %d", states, sweepJobsPoolStates)
			}
			if nodes != sweepJobsPoolNodes {
				b.Fatalf("walked %d nodes per pass, want %d", nodes, sweepJobsPoolNodes)
			}
			b.ReportMetric(float64(states), "states/op")
			b.ReportMetric(float64(nodes), "nodes/op")
		})
	}
}

// freshSweep evaluates every size with its own full flow run —
// validate + analyze + tables per point, the pre-workspace behavior —
// over w concurrent workers. It returns the summed MHLA+TE cycles as
// a cross-check value.
func freshSweep(b *testing.B, prog *mhla.Program, sizes []int64, w int) int64 {
	b.Helper()
	results := make([]*mhla.Result, len(sizes))
	if w <= 1 {
		for i, l1 := range sizes {
			results[i] = runSweepPoint(b, prog, l1, nil)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		errs := make([]error, len(sizes))
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(sizes) {
						return
					}
					results[i], errs[i] = mhla.Run(context.Background(), prog, mhla.WithL1(sizes[i]))
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	var total int64
	for _, r := range results {
		total += r.TE.Cycles
	}
	return total
}

func runSweepPoint(b *testing.B, prog *mhla.Program, l1 int64, opts []mhla.Option) *mhla.Result {
	b.Helper()
	res, err := mhla.Run(context.Background(), prog, append([]mhla.Option{mhla.WithL1(l1)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// sweepBenchCase is one named sub-benchmark of the workspace sweep
// suite — shared between BenchmarkWorkspaceSweep (which b.Runs each)
// and the BENCH_WORKSPACE_SWEEP.json writer test, so the recorded
// numbers come from exactly the benchmarked code.
type sweepBenchCase struct {
	name string
	fn   func(b *testing.B)
}

// workspaceSweepBenches builds the workspace sweep suite over the
// standard L1 sweep (17 half-power sizes, 256 B .. 64 KiB):
//
//	fresh/workers=N    — every sweep point validates, analyzes and
//	                     rebuilds the program-side tables itself (the
//	                     pre-workspace behavior), N points in flight;
//	                     greedy engine on the flagship app (qsdpcm)
//	shared/workers=N   — one workspace.Compile per sweep, the points
//	                     fan out over the concurrent sweep pool and
//	                     share it read-only
//	bnb-fresh/workers=1 — exact branch-and-bound at every point,
//	                     each search independent (cold greedy seed);
//	                     the workspace and its option catalogs are
//	                     already shared, so the remaining cost is
//	                     pure search
//	bnb-warm/workers=1 — the incremental chained sweep: ascending
//	                     sizes, each point's search warm-started from
//	                     its predecessor's optimum, pruning partials
//	                     that cannot beat the re-scored neighbor
//
// The exact-engine pair runs on the heaviest tractable scenario of
// the scaled-up progen family (the paper apps are intractable for
// exhaustive-quality search): the ratio of the pair is the headline
// cross-sweep incremental-search claim. Results are verified
// identical within each family on every iteration (summed MHLA+TE
// cycles) — the warm chain is byte-identical to cold per-point
// searches, it only explores fewer states. Wall-clock speedup of
// workers=4 over workers=1 requires actual cores — on a single-CPU
// host the points time-slice and tie. Measured numbers are recorded
// in BENCH_WORKSPACE_SWEEP.json (regenerate with the env-gated
// TestWriteWorkspaceSweepBench).
func workspaceSweepBenches(fatal func(...any)) []sweepBenchCase {
	app, err := apps.ByName("qsdpcm")
	if err != nil {
		fatal(err)
	}
	prog := app.Build(apps.Paper)
	sizes := mhla.DefaultSweepSizes()

	bnbCfg := progen.Config{MaxArrays: 6, MaxBlocks: 4, MaxNests: 3, MaxDepth: 5, MaxAccesses: 4, MaxSpace: 2_000_000_000}
	bnbSC := bnbCfg.Generate(6)
	bnbWS, err := mhla.Compile(bnbSC.Program)
	if err != nil {
		fatal(err)
	}
	// Both bnb cases run on one worker, so the pair stays like-for-like.
	bnbOpts := []mhla.Option{
		mhla.WithEngine(mhla.BnB), mhla.WithMaxStates(400_000_000), mhla.WithWorkers(1),
		mhla.WithObjective(bnbSC.Options.Objective), mhla.WithPolicy(bnbSC.Options.Policy),
	}

	var cases []sweepBenchCase
	var ref int64
	for _, w := range []int{1, 4} {
		w := w
		cases = append(cases,
			sweepBenchCase{fmt.Sprintf("fresh/workers=%d", w), func(b *testing.B) {
				b.ReportAllocs()
				var total int64
				for i := 0; i < b.N; i++ {
					total = freshSweep(b, prog, sizes, w)
				}
				if ref == 0 {
					ref = total
				} else if total != ref {
					b.Fatalf("fresh sweep (workers=%d) diverged: %d != %d", w, total, ref)
				}
				b.ReportMetric(float64(len(sizes)), "sweep_points")
			}},
			sweepBenchCase{fmt.Sprintf("shared/workers=%d", w), func(b *testing.B) {
				b.ReportAllocs()
				var total int64
				for i := 0; i < b.N; i++ {
					ws, err := mhla.Compile(prog)
					if err != nil {
						b.Fatal(err)
					}
					sw, err := mhla.SweepL1(context.Background(), prog, sizes,
						mhla.WithWorkspace(ws), mhla.WithWorkers(w))
					if err != nil {
						b.Fatal(err)
					}
					total = 0
					for _, pt := range sw.Points {
						total += pt.Result.TE.Cycles
					}
				}
				if ref != 0 && total != ref {
					b.Fatalf("shared sweep (workers=%d) diverged from fresh: %d != %d", w, total, ref)
				}
				b.ReportMetric(float64(len(sizes)), "sweep_points")
			}},
		)
	}

	var bnbRef int64
	cases = append(cases,
		sweepBenchCase{"bnb-fresh/workers=1", func(b *testing.B) {
			b.ReportAllocs()
			var total int64
			var states int
			for i := 0; i < b.N; i++ {
				total, states = 0, 0
				for _, l1 := range sizes {
					res, err := mhla.Run(context.Background(), bnbSC.Program,
						append([]mhla.Option{mhla.WithL1(l1), mhla.WithWorkspace(bnbWS)}, bnbOpts...)...)
					if err != nil {
						b.Fatal(err)
					}
					total += res.TE.Cycles
					states += res.SearchStates
				}
			}
			if bnbRef == 0 {
				bnbRef = total
			} else if total != bnbRef {
				b.Fatalf("cold bnb sweep diverged: %d != %d", total, bnbRef)
			}
			b.ReportMetric(float64(states), "bnb_states")
			b.ReportMetric(float64(len(sizes)), "sweep_points")
		}},
		sweepBenchCase{"bnb-warm/workers=1", func(b *testing.B) {
			b.ReportAllocs()
			var total int64
			var states int
			for i := 0; i < b.N; i++ {
				sw, err := mhla.SweepL1(context.Background(), bnbSC.Program, sizes,
					append([]mhla.Option{mhla.WithWorkspace(bnbWS)}, bnbOpts...)...)
				if err != nil {
					b.Fatal(err)
				}
				total, states = 0, 0
				for _, pt := range sw.Points {
					total += pt.Result.TE.Cycles
					states += pt.Result.SearchStates
				}
			}
			if bnbRef != 0 && total != bnbRef {
				b.Fatalf("warm bnb sweep diverged from cold per-point searches: %d != %d", total, bnbRef)
			}
			b.ReportMetric(float64(states), "bnb_states")
			b.ReportMetric(float64(len(sizes)), "sweep_points")
		}},
	)
	return cases
}

// BenchmarkWorkspaceSweep runs the workspace sweep suite; see
// workspaceSweepBenches for the sub-benchmarks and the verification
// each carries.
func BenchmarkWorkspaceSweep(b *testing.B) {
	for _, c := range workspaceSweepBenches(b.Fatal) {
		b.Run(c.name, c.fn)
	}
}

// benchPost posts a JSON body and returns status and response bytes.
// Transport failures report with Errorf (safe off the benchmark
// goroutine, where FailNow is not) and surface as status 0.
func benchPost(b *testing.B, client *http.Client, url, body string) (int, []byte) {
	b.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		b.Errorf("POST %s: %v", url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Errorf("POST %s: read body: %v", url, err)
		return 0, nil
	}
	return resp.StatusCode, data
}

// BenchmarkServerThroughput measures the HTTP serving layer end to end
// on the flagship application:
//
//	run/cold          — every request is a distinct program: full
//	                    decode + workspace compile + flow per request
//	run/warm          — every request hits the compiled-workspace
//	                    cache: the program-side analysis is paid once
//	run/warm/parallel — warm requests from concurrent clients through
//	                    the in-flight semaphore
//	sweep/warm        — the 9-point concurrent L1 sweep per request
//
// Warm responses are verified byte-identical to the direct facade
// call on every iteration — the serving layer's differential
// guarantee, measured rather than assumed. Measured numbers are
// recorded in BENCH_SERVER.json; the cold/warm gap is the cache win.
// On a single-CPU host the parallel variant cannot beat sequential
// warm requests (the flow is compute-bound); re-measure on cores for
// the concurrency win.
func BenchmarkServerThroughput(b *testing.B) {
	app, err := apps.ByName("me")
	if err != nil {
		b.Fatal(err)
	}
	prog := app.Build(apps.Paper)
	progJSON, err := mhla.EncodeProgram(prog)
	if err != nil {
		b.Fatal(err)
	}
	res, err := mhla.Run(context.Background(), prog, mhla.WithL1(app.L1))
	if err != nil {
		b.Fatal(err)
	}
	want, err := mhla.ResultJSON(res)
	if err != nil {
		b.Fatal(err)
	}
	warmBody := fmt.Sprintf(`{"app":"me","l1_bytes":%d}`, app.L1)

	newServer := func() (*server.Server, *httptest.Server) {
		srv := server.New(server.Config{CacheEntries: 64})
		return srv, httptest.NewServer(srv.Handler())
	}

	b.Run("run/cold", func(b *testing.B) {
		srv, ts := newServer()
		defer ts.Close()
		for i := 0; i < b.N; i++ {
			// A unique program name per request: a distinct digest, so
			// every request compiles its workspace from scratch.
			body := fmt.Sprintf(`{"program":%s,"l1_bytes":%d}`,
				strings.Replace(string(progJSON), `"name": "me"`, fmt.Sprintf(`"name": "me-%d"`, i), 1),
				app.L1)
			code, data := benchPost(b, http.DefaultClient, ts.URL+"/v1/run", body)
			if code != http.StatusOK {
				b.Fatalf("status %d: %s", code, data)
			}
		}
		b.StopTimer()
		if got := srv.Stats().Cache.Compiles; got != int64(b.N) {
			b.Fatalf("cold run compiled %d workspaces, want %d", got, b.N)
		}
	})

	b.Run("run/warm", func(b *testing.B) {
		srv, ts := newServer()
		defer ts.Close()
		// Prime the cache outside the timer.
		if code, data := benchPost(b, http.DefaultClient, ts.URL+"/v1/run", warmBody); code != http.StatusOK {
			b.Fatalf("prime status %d: %s", code, data)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			code, data := benchPost(b, http.DefaultClient, ts.URL+"/v1/run", warmBody)
			if code != http.StatusOK {
				b.Fatalf("status %d: %s", code, data)
			}
			if !bytes.Equal(data, want) {
				b.Fatalf("warm response diverged from direct facade call")
			}
		}
		b.StopTimer()
		if got := srv.Stats().Cache.Compiles; got != 1 {
			b.Fatalf("warm run compiled %d workspaces, want 1", got)
		}
	})

	b.Run("run/warm/parallel", func(b *testing.B) {
		_, ts := newServer()
		defer ts.Close()
		// A dedicated pooled client: the default transport keeps only 2
		// idle connections per host, so 8-way parallelism through it
		// would measure TCP dial/teardown churn instead of the server.
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
		defer client.CloseIdleConnections()
		if code, data := benchPost(b, client, ts.URL+"/v1/run", warmBody); code != http.StatusOK {
			b.Fatalf("prime status %d: %s", code, data)
		}
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				code, data := benchPost(b, client, ts.URL+"/v1/run", warmBody)
				if code != http.StatusOK {
					b.Errorf("status %d: %s", code, data)
					return
				}
				if !bytes.Equal(data, want) {
					b.Errorf("warm response diverged from direct facade call")
					return
				}
			}
		})
	})

	b.Run("sweep/warm", func(b *testing.B) {
		sw, err := mhla.SweepL1(context.Background(), prog, nil)
		if err != nil {
			b.Fatal(err)
		}
		wantSweep, err := sw.JSON()
		if err != nil {
			b.Fatal(err)
		}
		_, ts := newServer()
		defer ts.Close()
		sweepBody := `{"app":"me"}`
		if code, data := benchPost(b, http.DefaultClient, ts.URL+"/v1/sweep", sweepBody); code != http.StatusOK {
			b.Fatalf("prime status %d: %s", code, data)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			code, data := benchPost(b, http.DefaultClient, ts.URL+"/v1/sweep", sweepBody)
			if code != http.StatusOK {
				b.Fatalf("status %d: %s", code, data)
			}
			if !bytes.Equal(data, wantSweep) {
				b.Fatalf("sweep response diverged from direct facade call")
			}
		}
	})
}

// BenchmarkJobsThroughput measures the async job pipeline end to end:
// submit POST /v1/jobs requests with a bounded outstanding window,
// poll each to completion and fetch its stored result, verified
// byte-identical to the synchronous /v1/run response on every job. The
// measured quantity is pipeline throughput (submit + queue + execute +
// fetch), not single-job latency. CI runs one iteration in its bench
// smoke; on a single-CPU host extra job workers cannot raise
// throughput (the flow is compute-bound) — re-measure on cores.
func BenchmarkJobsThroughput(b *testing.B) {
	app, err := apps.ByName("me")
	if err != nil {
		b.Fatal(err)
	}
	prog := app.Build(apps.Paper)
	res, err := mhla.Run(context.Background(), prog, mhla.WithL1(app.L1))
	if err != nil {
		b.Fatal(err)
	}
	want, err := mhla.ResultJSON(res)
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(server.Config{CacheEntries: 64, JobWorkers: 2, JobBacklog: 1024})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	submitBody := fmt.Sprintf(`{"kind":"run","request":{"app":"me","l1_bytes":%d}}`, app.L1)

	// Prime the workspace cache outside the timer.
	if code, data := benchPost(b, http.DefaultClient, ts.URL+"/v1/run",
		fmt.Sprintf(`{"app":"me","l1_bytes":%d}`, app.L1)); code != http.StatusOK {
		b.Fatalf("prime status %d: %s", code, data)
	}

	var envelope struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	waitDone := func(id string) {
		b.Helper()
		for {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				b.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(&envelope)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			switch envelope.State {
			case "done":
				return
			case "failed", "canceled":
				b.Fatalf("job %s ended %s", id, envelope.State)
			}
		}
	}

	const window = 64 // outstanding jobs, well under the backlog
	pending := make([]string, 0, window)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, data := benchPost(b, http.DefaultClient, ts.URL+"/v1/jobs", submitBody)
		if code != http.StatusAccepted {
			b.Fatalf("submit status %d: %s", code, data)
		}
		if err := json.Unmarshal(data, &envelope); err != nil {
			b.Fatal(err)
		}
		pending = append(pending, envelope.ID)
		if len(pending) == window {
			waitDone(pending[0])
			pending = pending[1:]
		}
	}
	for _, id := range pending {
		waitDone(id)
	}
	b.StopTimer()

	// Spot-check byte identity on the last completed job.
	if envelope.ID != "" {
		code, data := benchGet(b, ts.URL+"/v1/jobs/"+envelope.ID+"/result")
		if code != http.StatusOK {
			b.Fatalf("result status %d: %s", code, data)
		}
		if !bytes.Equal(data, want) {
			b.Fatal("async result diverged from the synchronous response")
		}
	}
	if st := srv.Stats().Jobs; st.Failed != 0 || st.Shed != 0 {
		b.Fatalf("job outcomes: %+v", st)
	}
}

// benchGet fetches a URL and returns status and body bytes.
func benchGet(b *testing.B, url string) (int, []byte) {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Errorf("GET %s: %v", url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Errorf("GET %s: read body: %v", url, err)
		return 0, nil
	}
	return resp.StatusCode, data
}

// BenchmarkReuseAnalysis measures the copy-candidate derivation on
// the paper-scale applications (tool performance).
func BenchmarkReuseAnalysis(b *testing.B) {
	for _, name := range []string{"me", "qsdpcm", "jpeg"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog := app.Build(apps.Paper)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mhla.Analyze(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAssignmentSearch measures the greedy assignment step alone.
func BenchmarkAssignmentSearch(b *testing.B) {
	for _, name := range []string{"me", "qsdpcm", "cavity"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog := app.Build(apps.Paper)
		an, err := mhla.Analyze(prog)
		if err != nil {
			b.Fatal(err)
		}
		plat := mhla.TwoLevel(app.L1)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mhla.Search(context.Background(), an, plat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTimeExtension measures the Figure-1 TE step alone.
func BenchmarkTimeExtension(b *testing.B) {
	for _, name := range []string{"me", "qsdpcm"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog := app.Build(apps.Paper)
		an, err := mhla.Analyze(prog)
		if err != nil {
			b.Fatal(err)
		}
		sr, err := mhla.Search(context.Background(), an, mhla.TwoLevel(app.L1))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mhla.Extend(sr.Assignment); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceSimulator measures the element-level validation
// simulator on the down-scaled workloads it is meant for.
func BenchmarkTraceSimulator(b *testing.B) {
	for _, name := range []string{"me", "cavity"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog := app.Build(apps.Test)
		an, err := mhla.Analyze(prog)
		if err != nil {
			b.Fatal(err)
		}
		sr, err := mhla.Search(context.Background(), an, mhla.TwoLevel(app.L1))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mhla.SimulateTrace(sr.Assignment, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCacheSim measures the trace-driven hardware cache +
// prefetch simulator (the second backend) replaying paper-scale motion
// estimation (~14.6M accesses) through the default hierarchy, one
// sub-benchmark per prefetcher variant. The headline metric is
// accesses/s — the replay rate of the demand stream, reported as
// macc_per_s (millions of accesses per second). hit_pct and pf_pct
// record the model outputs so regressions in the simulation itself
// (not just its speed) show up in the numbers. BENCH_CACHESIM.json
// records the /v1/simulate pool instead (BenchmarkSimulatePool).
func BenchmarkCacheSim(b *testing.B) {
	app, err := apps.ByName("me")
	if err != nil {
		b.Fatal(err)
	}
	prog := app.Build(apps.Paper)
	ws, err := mhla.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	plat := mhla.TwoLevel(app.L1)
	base := mhla.CacheConfigFor(plat, 0, 0)
	for _, kind := range []mhla.Prefetcher{mhla.PrefetchNone, mhla.PrefetchNextLine, mhla.PrefetchStride} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			cfg := mhla.CacheConfig{Levels: append([]mhla.CacheLevel(nil), base.Levels...), MaxAccesses: 20_000_000}
			for i := range cfg.Levels {
				cfg.Levels[i].Prefetcher = kind
				if kind != mhla.PrefetchNone {
					cfg.Levels[i].PrefetchLatency = 4
				}
			}
			var res *mhla.CacheResult
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = mhla.Simulate(context.Background(), prog, cfg,
					mhla.WithPlatform(plat), mhla.WithWorkspace(ws))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			perOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(res.Accesses)/perOp/1e6, "macc_per_s")
			l1 := res.Levels[0]
			b.ReportMetric(100*float64(l1.Hits)/float64(l1.Accesses), "hit_pct")
			b.ReportMetric(100*float64(l1.PrefetchHits)/float64(l1.Accesses), "pf_pct")
		})
	}
}

// BenchmarkSimulatePool replays the /v1/simulate pool of mhla-bench in
// process: the five paper-scale applications it serves (qsdpcm,
// wavelet, durbin, voice, dab) through one cache configuration per
// sub-benchmark, the same four as that workload: no cache (anchor),
// the derived LRU hierarchy, and next-line and stride prefetch into an
// 8-entry buffer arriving 4 accesses late. One op is the five replays;
// each application's workspace is compiled once, before timing, as the
// server's cache does. Measured numbers are recorded in
// BENCH_CACHESIM.json.
func BenchmarkSimulatePool(b *testing.B) {
	type replay struct {
		prog *mhla.Program
		ws   *mhla.Workspace
		plat *mhla.Platform
	}
	var pool []replay
	for _, name := range []string{"qsdpcm", "wavelet", "durbin", "voice", "dab"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog := app.Build(apps.Paper)
		ws, err := mhla.Compile(prog)
		if err != nil {
			b.Fatal(err)
		}
		pool = append(pool, replay{prog, ws, mhla.TwoLevel(app.L1)})
	}
	for _, variant := range []string{"anchor", "lru", "nextline", "stride"} {
		b.Run(variant, func(b *testing.B) {
			cfgs := make([]mhla.CacheConfig, len(pool))
			for i, r := range pool {
				cfgs[i].MaxAccesses = 20_000_000
				if variant == "anchor" {
					continue
				}
				cfgs[i].Levels = mhla.CacheConfigFor(r.plat, 0, 0).Levels
				for j := range cfgs[i].Levels {
					switch variant {
					case "nextline":
						cfgs[i].Levels[j].Prefetcher = mhla.PrefetchNextLine
					case "stride":
						cfgs[i].Levels[j].Prefetcher = mhla.PrefetchStride
					default:
						continue
					}
					cfgs[i].Levels[j].PrefetchEntries, cfgs[i].Levels[j].PrefetchLatency = 8, 4
				}
			}
			var accesses int64
			b.ReportAllocs()
			for b.Loop() {
				accesses = 0
				for i, r := range pool {
					res, err := mhla.Simulate(context.Background(), r.prog, cfgs[i],
						mhla.WithPlatform(r.plat), mhla.WithWorkspace(r.ws))
					if err != nil {
						b.Fatal(err)
					}
					accesses += res.Accesses
				}
			}
			b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds()/1e6, "macc_per_s")
		})
	}
}

// BenchmarkAblationWrites quantifies the write-back overlap extension
// (A4, beyond the paper's Figure 1): plan TE with and without
// ExtendWrites and report the remaining stall cycles.
func BenchmarkAblationWrites(b *testing.B) {
	for _, name := range []string{"wavelet", "cavity"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog := app.Build(apps.Paper)
		an, err := mhla.Analyze(prog)
		if err != nil {
			b.Fatal(err)
		}
		sr, err := mhla.Search(context.Background(), an, mhla.TwoLevel(app.L1))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var def, wr *mhla.Plan
			for i := 0; i < b.N; i++ {
				def, err = mhla.Extend(sr.Assignment)
				if err != nil {
					b.Fatal(err)
				}
				wr, err = mhla.ExtendWithWrites(sr.Assignment)
				if err != nil {
					b.Fatal(err)
				}
			}
			dc := def.Assignment.Evaluate(mhla.EvalOptions{Hidden: def.Hidden()})
			wc := wr.Assignment.Evaluate(mhla.EvalOptions{Hidden: wr.Hidden()})
			b.ReportMetric(float64(dc.StallCycles), "stall_default")
			b.ReportMetric(float64(wc.StallCycles), "stall_writes")
		})
	}
}

// BenchmarkHierarchyDepth compares the two-level figure platform
// against a three-level hierarchy at equal total on-chip capacity
// (A5).
func BenchmarkHierarchyDepth(b *testing.B) {
	for _, name := range []string{"me", "qsdpcm"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog := app.Build(apps.Paper)
		b.Run(name, func(b *testing.B) {
			var two, three *mhla.Result
			for i := 0; i < b.N; i++ {
				var err error
				two, err = mhla.Run(context.Background(), prog, mhla.WithL1(app.L1))
				if err != nil {
					b.Fatal(err)
				}
				three, err = mhla.Run(context.Background(), prog,
					mhla.WithPlatform(mhla.ThreeLevel(app.L1/4, app.L1-app.L1/4)))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*two.Gains().MHLAEnergy, "two_level_energy_pct")
			b.ReportMetric(100*three.Gains().MHLAEnergy, "three_level_energy_pct")
		})
	}
}

// BenchmarkAblationBlocking measures the loop-transformation
// pre-step (A6): MHLA on a naive matrix multiply against the
// tile+interchange blocked version.
func BenchmarkAblationBlocking(b *testing.B) {
	const n = 64
	build := func() *mhla.Program {
		p := mhla.NewProgram("matmul")
		ma := p.NewInput("a", 2, n, n)
		mb := p.NewInput("b", 2, n, n)
		mc := p.NewOutput("c", 2, n, n)
		p.AddBlock("mm",
			mhla.For("i", n, mhla.For("j", n,
				mhla.For("k", n,
					mhla.Load(ma, mhla.Idx("i"), mhla.Idx("k")),
					mhla.Load(mb, mhla.Idx("k"), mhla.Idx("j")),
					mhla.Work(2),
				),
				mhla.Store(mc, mhla.Idx("i"), mhla.Idx("j")))))
		return p
	}
	var naive, blocked *mhla.Result
	for i := 0; i < b.N; i++ {
		p := build()
		tiled, err := mhla.Tile(p, "mm", "j", 8)
		if err != nil {
			b.Fatal(err)
		}
		q, err := mhla.Interchange(tiled, "mm", "i")
		if err != nil {
			b.Fatal(err)
		}
		plat := mhla.TwoLevel(4096)
		naive, err = mhla.Run(context.Background(), p, mhla.WithPlatform(plat))
		if err != nil {
			b.Fatal(err)
		}
		blocked, err = mhla.Run(context.Background(), q, mhla.WithPlatform(plat))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(naive.MHLA.Energy/blocked.MHLA.Energy, "blocking_energy_x")
	b.ReportMetric(float64(naive.MHLA.Cycles)/float64(blocked.MHLA.Cycles), "blocking_cycles_x")
}

// BenchmarkEventSimulator measures the event-driven DMA timeline
// simulator on paper-scale motion estimation.
func BenchmarkEventSimulator(b *testing.B) {
	app, err := apps.ByName("me")
	if err != nil {
		b.Fatal(err)
	}
	res, err := mhla.Run(context.Background(), app.Build(apps.Paper), mhla.WithL1(app.L1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := mhla.SimulateDMA(res.Plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLayout measures the in-place address mapper across the
// nine figure assignments.
func BenchmarkLayout(b *testing.B) {
	var plans []*mhla.Plan
	for _, app := range apps.All() {
		res, err := mhla.Run(context.Background(), app.Build(apps.Paper), mhla.WithL1(app.L1))
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, res.Plan)
	}
	b.ResetTimer()
	var frag int64
	for i := 0; i < b.N; i++ {
		frag = 0
		for _, plan := range plans {
			maps, err := mhla.Layout(plan.Assignment)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range maps {
				frag += m.Fragmentation()
			}
		}
	}
	b.ReportMetric(float64(frag), "total_frag_bytes")
}

// BenchmarkMultiTask measures the future-work multi-task partitioning
// on three audio/image tasks sharing an 8 KiB scratchpad.
func BenchmarkMultiTask(b *testing.B) {
	var tasks []mhla.Task
	for _, name := range []string{"durbin", "voice", "sobel"} {
		app, err := apps.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		tasks = append(tasks, mhla.Task{Name: name, Program: app.Build(apps.Test)})
	}
	var plan *mhla.MultiTaskPlan
	for i := 0; i < b.N; i++ {
		var err error
		plan, err = mhla.Partition(context.Background(), tasks, 8192)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(plan.Used()), "bytes_used")
	b.ReportMetric(plan.TotalEnergy, "total_pj")
}
