package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"mhla/internal/apps"
	"mhla/internal/progen"
	"mhla/internal/server"
	"mhla/pkg/mhla"
)

// env is what every workload is prepared and run under.
type env struct {
	seed    int64
	seconds float64
	smoke   bool
	// cpus bounds both the HTTP connections and the closed-loop clients.
	cpus int
}

// opSource is what the traced run needs to call the facade directly
// for an op: a catalog application or inline interchange JSON, the
// platform, and for replays the cache configuration.
type opSource struct {
	app      string
	scale    apps.Scale
	l1       int64
	program  []byte
	platform []byte
	cache    *mhla.CacheConfig
	variant  string
}

// plan is a prepared workload: the request pool with its references,
// the requests that prime a fresh server, and the shape of the load.
type plan struct {
	cfg   server.Config
	prime []*op
	// persist makes setup boot a priming server with a snapshot
	// directory, close it, and boot the measured server on the
	// snapshot it left, waiting for the rewarm.
	persist bool
	pool    []*op
	// mix is one pass of the load: the pool, or for run-churn a deck
	// of Zipf draws over it. The load takes it in whole passes.
	mix   []*op
	order order
	// pass is the op count of a pass when it is not the whole mix.
	pass int
	// probed workloads have ops short enough to probe the host's speed
	// around each one in sequential stretches (see runProbedStretch).
	probed bool
	// jobs sends the ops as async jobs: one at a time in a sequential
	// stretch, in batches of jobBatchSize in a closed-loop one.
	jobs bool
	// sample is the op count of one traced pass (0 = the whole pool).
	sample int
	// meanAccesses is the mean trace length of a replay (simulate).
	meanAccesses float64
}

// order is how a workload takes the ops of a pass.
type order int

const (
	// inRounds takes every op of the mix once per pass, each pass
	// shuffled.
	inRounds order = iota
	// inPoolOrder takes the mix in its own order, over and over.
	inPoolOrder
)

func (p *plan) picker(seed int64) picker {
	if p.order == inPoolOrder {
		return &cycle{pool: p.mix}
	}
	return newRounds(p.mix, seed)
}

// workload is one named traffic mix. The package documentation says
// why each was chosen.
type workload struct {
	name    string
	prepare func(ctx context.Context, e env) (*plan, error)
}

var workloads = []workload{
	{"run-paper", preparePaper},
	{"run-churn", prepareChurn},
	{"sweep-jobs", prepareSweeps},
	{"simulate", prepareSimulate},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// parallel runs fn(0..n-1) on at most workers goroutines and returns
// the first error.
func parallel(n, workers int, fn func(i int) error) error {
	next := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode request: %v", err)) // only plain structs are encoded
	}
	return data
}

// runRef is the facade reference of a /v1/run request.
func runRef(ctx context.Context, prog *mhla.Program, opts ...mhla.Option) ([]byte, error) {
	res, err := mhla.Run(ctx, prog, opts...)
	if err != nil {
		return nil, err
	}
	return mhla.ResultJSON(res)
}

// appRunBody is a /v1/run request for a catalog application.
type appRunBody struct {
	App   string `json:"app"`
	Scale string `json:"scale,omitempty"`
	L1    int64  `json:"l1_bytes,omitempty"`
}

// catalogRunOp builds the /v1/run op of a catalog application at one
// L1 size, with its reference.
func catalogRunOp(ctx context.Context, app apps.App, scale apps.Scale, l1 int64) (*op, error) {
	body := appRunBody{App: app.Name, L1: l1}
	if scale == apps.Test {
		body.Scale = "test"
	}
	want, err := runRef(ctx, app.Build(scale), mhla.WithL1(l1))
	if err != nil {
		return nil, fmt.Errorf("reference %s@%d: %w", app.Name, l1, err)
	}
	return &op{kind: "run", label: app.Name, path: "/v1/run", body: mustJSON(body), want: want, weight: 1,
		src: opSource{app: app.Name, scale: scale, l1: l1}}, nil
}

func preparePaper(ctx context.Context, e env) (*plan, error) {
	catalog := apps.All()
	pool := make([]*op, 3*len(catalog))
	err := parallel(len(pool), e.cpus, func(i int) error {
		app := catalog[i/3]
		l1 := []int64{app.L1 / 2, app.L1, 2 * app.L1}[i%3]
		o, err := catalogRunOp(ctx, app, apps.Paper, l1)
		pool[i] = o
		return err
	})
	if err != nil {
		return nil, err
	}
	return &plan{prime: pool, pool: pool, mix: pool, probed: true, sample: runSample(e)}, nil
}

// runSample is the op count of one traced pass of the run workloads.
func runSample(e env) int {
	if e.smoke {
		return 20
	}
	return 200
}

// inlineRunBody is a /v1/run request with inline interchange JSON.
type inlineRunBody struct {
	Program  json.RawMessage `json:"program"`
	Platform json.RawMessage `json:"platform,omitempty"`
}

// churnPool is the number of generated programs of run-churn; with the
// server's default 64-entry workspace cache, Zipf(1) popularity over
// them hits the cache on a little over half of the requests. A deck of
// zipfDeckSize draws holds the least popular programs once each; a
// smoke run deals a smaller one. A pass is a quarter of a deck, so that
// a stretch need not last a whole deck.
const (
	churnPool         = 512
	zipfDeckSize      = 4096
	smokeZipfDeckSize = 512
	churnPasses       = 4
)

func prepareChurn(ctx context.Context, e env) (*plan, error) {
	pool := make([]*op, churnPool)
	err := parallel(len(pool), e.cpus, func(i int) error {
		// The pool is fixed: rank k is always progen scenario k+1, so
		// runs with different seeds differ in the draw sequence, not in
		// which programs are popular.
		sc := progen.Generate(int64(i + 1))
		prog, err := mhla.EncodeProgram(sc.Program)
		if err != nil {
			return err
		}
		plat, err := mhla.EncodePlatform(sc.Platform)
		if err != nil {
			return err
		}
		dp, err := mhla.DecodeProgram(prog)
		if err != nil {
			return err
		}
		dplat, err := mhla.DecodePlatform(plat)
		if err != nil {
			return err
		}
		want, err := runRef(ctx, dp, mhla.WithPlatform(dplat))
		if err != nil {
			return fmt.Errorf("reference %s: %w", sc.Program.Name, err)
		}
		pool[i] = &op{kind: "run", label: sc.Program.Name, path: "/v1/run",
			body: mustJSON(inlineRunBody{Program: prog, Platform: plat}), want: want, weight: 1,
			src: opSource{program: prog, platform: plat}}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Prime the cache with the 64 most popular programs, most popular
	// last, so it starts in the state the draw sequence converges to.
	var prime []*op
	for k := 63; k >= 0; k-- {
		prime = append(prime, pool[k])
	}
	deck := zipfDeckSize
	if e.smoke {
		deck = smokeZipfDeckSize
	}
	mix := zipfDeck(pool, deck)
	return &plan{prime: prime, pool: pool, mix: mix, pass: len(mix) / churnPasses, probed: true, sample: runSample(e)}, nil
}

// sweepBody is the nested /v1/sweep request of a sweep job.
type sweepBody struct {
	Program   json.RawMessage `json:"program"`
	Engine    string          `json:"engine"`
	MaxStates int             `json:"max_states"`
}

const (
	sweepPool      = 16
	sweepMinSpace  = 100_000
	sweepMaxStates = 10_000_000
	sweepResultTTL = 2 * time.Second
)

func prepareSweeps(ctx context.Context, e env) (*plan, error) {
	// Larger programs than progen's default, so exact sweeps take tens
	// of milliseconds. The pool is fixed (the first sweepPool scenarios
	// with a decision space of at least sweepMinSpace): their sweep
	// costs span two orders of magnitude, and a seed-dependent pool
	// would make the mix, not the code, decide the numbers.
	gen := progen.Config{MaxArrays: 5, MaxBlocks: 3, MaxNests: 3, MaxDepth: 4, MaxAccesses: 4, MaxSpace: 2e7}
	var progs [][]byte
	for seed := int64(1); len(progs) < sweepPool; seed++ {
		sc := gen.Generate(seed)
		if sc.Space < sweepMinSpace {
			continue
		}
		data, err := mhla.EncodeProgram(sc.Program)
		if err != nil {
			return nil, err
		}
		progs = append(progs, data)
	}
	pool := make([]*op, len(progs))
	prime := make([]*op, len(progs))
	err := parallel(len(progs), e.cpus, func(i int) error {
		prog, err := mhla.DecodeProgram(progs[i])
		if err != nil {
			return err
		}
		sw, err := mhla.SweepL1(ctx, prog, nil, mhla.WithEngine(mhla.BnB), mhla.WithMaxStates(sweepMaxStates))
		if err != nil {
			return fmt.Errorf("reference sweep %s: %w", prog.Name, err)
		}
		want, err := sw.JSON()
		if err != nil {
			return err
		}
		pool[i] = &op{kind: "sweep", label: prog.Name, path: "/v1/sweep",
			body: mustJSON(sweepBody{Program: progs[i], Engine: "bnb", MaxStates: sweepMaxStates}),
			want: want, weight: 1, src: opSource{program: progs[i]}}
		// Priming runs the default flow once per program: enough to
		// compile it and put it in the persisted key set.
		runWant, err := runRef(ctx, prog)
		if err != nil {
			return fmt.Errorf("reference run %s: %w", prog.Name, err)
		}
		prime[i] = &op{kind: "run", label: prog.Name, path: "/v1/run",
			body: mustJSON(inlineRunBody{Program: progs[i]}), want: runWant, weight: 1}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sample := 2 * sweepPool
	if e.smoke {
		sample = 4
	}
	// Batches are the pool's two fixed halves, so a seed changes the
	// jobs' priorities and tenants, not which sweeps queue together: the
	// costs are too uneven for random batches to average out in a run.
	// Finished jobs are kept for sweepResultTTL instead of the default
	// 15 minutes; the generator fetches each result within milliseconds,
	// and the heap then holds the same number of finished jobs however
	// many a run completes.
	return &plan{
		cfg:   server.Config{JobResultTTL: sweepResultTTL},
		prime: prime, persist: true, pool: pool, mix: pool, order: inPoolOrder, jobs: true, sample: sample,
	}, nil
}

// simLevel is one explicit cache level of a /v1/simulate request.
type simLevel struct {
	Sets            int    `json:"sets"`
	Ways            int    `json:"ways"`
	LineBytes       int    `json:"line_bytes"`
	Prefetcher      string `json:"prefetcher,omitempty"`
	PrefetchEntries int    `json:"prefetch_entries,omitempty"`
	PrefetchLatency int    `json:"prefetch_latency,omitempty"`
}

// simBody is a /v1/simulate request. Levels absent means the server
// derives LRU levels from the platform; present and empty means no
// cache at all.
type simBody struct {
	App         string      `json:"app"`
	Scale       string      `json:"scale,omitempty"`
	L1          int64       `json:"l1_bytes"`
	Levels      *[]simLevel `json:"levels,omitempty"`
	MaxAccesses int64       `json:"max_accesses"`
}

// The prefetch buffer of the prefetching variants, as in
// BENCH_CACHESIM.json: 8 entries, arriving 4 accesses after issue.
const (
	simMaxAccesses     = 20_000_000
	simPrefetchEntries = 8
	simPrefetchLatency = 4
)

// simPaperApps are the paper-scale applications the simulate workload
// replays (0.5 to 0.9 million accesses each). me, jpeg and cavity (8 to
// 15 million) and sobel (3.1 million) are left out: sobel alone took
// half of a pass over the list, and with all four a pass took about 20
// CPU-seconds, so a run held too few passes for its medians to settle.
var simPaperApps = []string{"qsdpcm", "wavelet", "durbin", "voice", "dab"}

// simVariant builds the request levels and facade configuration of one
// variant on a platform.
func simVariant(variant string, plat *mhla.Platform) (*[]simLevel, mhla.CacheConfig) {
	cfg := mhla.CacheConfig{MaxAccesses: simMaxAccesses}
	switch variant {
	case "anchor":
		return &[]simLevel{}, cfg
	case "lru":
		cfg.Levels = mhla.CacheConfigFor(plat, 0, 0).Levels
		return nil, cfg
	}
	kind := mhla.PrefetchNextLine
	if variant == "stride" {
		kind = mhla.PrefetchStride
	}
	var levels []simLevel
	for _, lv := range mhla.CacheConfigFor(plat, 0, 0).Levels {
		lv.Prefetcher, lv.PrefetchEntries, lv.PrefetchLatency = kind, simPrefetchEntries, simPrefetchLatency
		cfg.Levels = append(cfg.Levels, lv)
		levels = append(levels, simLevel{Sets: lv.Sets, Ways: lv.Ways, LineBytes: lv.LineBytes,
			Prefetcher: variant, PrefetchEntries: lv.PrefetchEntries, PrefetchLatency: lv.PrefetchLatency})
	}
	return &levels, cfg
}

func prepareSimulate(ctx context.Context, e env) (*plan, error) {
	names, scale := simPaperApps, apps.Paper
	if e.smoke {
		names, scale = appNames, apps.Test
	}
	var catalog []apps.App
	for _, name := range names {
		app, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		catalog = append(catalog, app)
	}
	pool := make([]*op, len(catalog)*len(simVariants))
	accesses := make([]int64, len(pool))
	prime := make([]*op, len(catalog))
	err := parallel(len(pool), e.cpus, func(i int) error {
		app, variant := catalog[i/len(simVariants)], simVariants[i%len(simVariants)]
		plat := mhla.TwoLevel(app.L1)
		levels, cfg := simVariant(variant, plat)
		body := simBody{App: app.Name, L1: app.L1, Levels: levels, MaxAccesses: simMaxAccesses}
		if scale == apps.Test {
			body.Scale = "test"
		}
		res, err := mhla.Simulate(ctx, app.Build(scale), cfg, mhla.WithPlatform(plat))
		if err != nil {
			return fmt.Errorf("reference %s/%s: %w", app.Name, variant, err)
		}
		want, err := mhla.SimulateJSON(res)
		if err != nil {
			return err
		}
		accesses[i] = res.Accesses
		pool[i] = &op{kind: "simulate", label: app.Name + "/" + variant, path: "/v1/simulate",
			body: mustJSON(body), want: want,
			src: opSource{app: app.Name, scale: scale, l1: app.L1, cache: &cfg, variant: variant}}
		if i%len(simVariants) == 0 {
			// One run per application compiles its workspace before the
			// timed phase; replays of the same app reuse it.
			p, err := catalogRunOp(ctx, app, scale, app.L1)
			prime[i/len(simVariants)] = p
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, a := range accesses {
		total += a
	}
	mean := float64(total) / float64(len(pool))
	for i, o := range pool {
		o.weight = float64(accesses[i]) / mean
	}
	return &plan{prime: prime, pool: pool, mix: pool, meanAccesses: mean}, nil
}

// setupResult is the outcome of booting a workload's server.
type setupResult struct {
	in      *instance
	dirs    []string
	setupS  []float64
	rewarmS []float64
}

// release stops the measured server and removes the snapshot
// directories.
func (s *setupResult) release() {
	if s.in != nil {
		s.in.close()
	}
	removeAll(s.dirs)
}

// prime sends the priming requests in order and verifies each.
func prime(in *instance, ops []*op, conns int) error {
	c := newClient(in.base, conns)
	defer c.close()
	for _, o := range ops {
		if err := c.sync(o); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
	}
	return nil
}

// setup boots the workload's server reps times, each afresh, and keeps
// the last one. Each boot is timed from server.New until the server is
// ready for timed traffic: priming requests answered and, with
// persistence, the rebooted server's rewarm done. Its time is recorded
// divided by the host slowdown read just before it.
func setup(p *plan, cfg server.Config, reps, conns int, hs *hostSpeed) (*setupResult, error) {
	res := &setupResult{}
	for rep := 0; rep < reps; rep++ {
		if res.in != nil {
			res.in.close()
			res.in = nil
		}
		if p.persist {
			dir, err := makeTempDir()
			if err != nil {
				res.release()
				return nil, err
			}
			res.dirs = append(res.dirs, dir)
			cfg.SnapshotDir = dir
		}
		host, err := hs.read(1)
		if err != nil {
			res.release()
			return nil, err
		}
		t0 := time.Now()
		in, err := start(cfg)
		if err != nil {
			res.release()
			return nil, err
		}
		res.in = in
		if err := prime(in, p.prime, conns); err != nil {
			res.release()
			return nil, err
		}
		if p.persist {
			in.close()
			res.in = nil
			t1 := time.Now()
			if in, err = start(cfg); err != nil {
				res.release()
				return nil, err
			}
			res.in = in
			if err := waitRewarm(in.srv, len(p.prime)); err != nil {
				res.release()
				return nil, err
			}
			res.rewarmS = append(res.rewarmS, time.Since(t1).Seconds())
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds()/host)
	}
	return res, nil
}

// waitRewarm waits until the rebooted server has recompiled its
// snapshot, which must hold exactly the primed programs.
func waitRewarm(srv *server.Server, want int) error {
	deadline := time.Now().Add(time.Minute)
	for {
		ps := srv.Stats().Persist
		if ps.RewarmDone {
			if ps.Rewarmed != int64(want) || ps.RewarmFailed != 0 {
				return fmt.Errorf("rewarm: %d programs rewarmed, %d failed, want %d", ps.Rewarmed, ps.RewarmFailed, want)
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rewarm not done after a minute")
		}
		time.Sleep(time.Millisecond)
	}
}
