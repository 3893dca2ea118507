package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"mhla/internal/server"
)

// Setup repetitions per run (setup_s is the median of these boots) and
// calibration kernel calls per host speed reading, in full and in smoke
// runs.
const (
	setupReps       = 15
	calibCalls      = 5
	smokeSetupReps  = 1
	smokeCalibCalls = 1
	smokeSeconds    = 0.5
)

func makeTempDir() (string, error) {
	dir, err := os.MkdirTemp("", "mhla-bench-")
	if err != nil {
		return "", fmt.Errorf("snapshot dir: %w", err)
	}
	return dir, nil
}

func removeAll(dirs []string) {
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// seedFor derives an independent random stream for one purpose of a
// run from the run's seed.
func seedFor(seed int64, purpose int64) int64 { return seed*1_000_003 + purpose }

const (
	streamLoad int64 = iota + 1
	streamJobs
	streamClosed
	streamTrace
)

// stretchLen is how long a stretch of the timed phase starts passes;
// it then finishes the pass it is in. A smoke run's are shorter.
// The host's speed changes within a second, and shorter stretches read
// it more often: over ten runs per workload, half-second stretches left
// a spread of latency_ms of 5 to 10% where one-second ones left 10 to
// 12%, with no clear change in that of throughput_ops_s.
const (
	stretchLen      = 500 * time.Millisecond
	smokeStretchLen = 100 * time.Millisecond
)

// stretch is one stretch of the timed phase: whole passes of the
// workload's mix, taken by clients keeping inFlight ops in flight.
type stretch struct {
	inFlight int
	// slowdown is the host's, read around the stretch; a probed
	// sequential stretch has one per sample instead.
	slowdown   float64
	start, end time.Time // end: when the mix ran dry
	samples    []sample
}

// seq reports whether the stretch is a sequential one.
func (g stretch) seq() bool { return g.inFlight == 1 }

// loadResult is what one load phase measured.
type loadResult struct {
	stretches          []stretch
	heap               float64
	inFlightMax        int64
	before, after      server.Stats
	rtBefore, rtAfter  runtimeCounters
	attempted, failed  int
	mismatches         int
	firstFailureReport string
}

// samples returns the samples of the sequential (seq) or closed-loop
// stretches.
func (lr *loadResult) samples(seq bool) []sample {
	var out []sample
	for _, g := range lr.stretches {
		if g.seq() == seq {
			out = append(out, g.samples...)
		}
	}
	return out
}

// runLoad drives the workload's timed phase for at most d as a series
// of slices, each a sequential stretch (one op in flight, for latency)
// followed by a closed-loop one (one client per CPU, for throughput;
// the job workload keeps a batch of jobBatchSize jobs in flight from
// one client). A stretch takes whole passes, so it holds the mix (to
// within a quarter deck on run-churn). It reads the host's speed just
// before it starts (a closed-loop one also just after it ends), so the
// reading describes the host its ops ran on; a probed workload's
// sequential stretch probes it around every op instead. A slice starts only if one as long as the longest so far
// still fits in d; the first always runs.
func runLoad(p *plan, in *instance, e env, d time.Duration, hs *hostSpeed) (*loadResult, error) {
	c := newClient(in.base, e.cpus)
	defer c.close()
	// Each kind of stretch takes its passes from a picker of its own.
	seqPk, closedPk := p.picker(seedFor(e.seed, streamLoad)), p.picker(seedFor(e.seed, streamClosed))
	rng := rand.New(rand.NewSource(seedFor(e.seed, streamJobs)))
	seq, closed := syncStep(c), syncStep(c)
	workers, inFlight := e.cpus, e.cpus
	if p.jobs {
		seq, closed = jobStep(c, rng, 1), jobStep(c, rng, jobBatchSize)
		workers, inFlight = 1, jobBatchSize
	}
	length := stretchLen
	if e.smoke {
		length = smokeStretchLen
	}
	lr := &loadResult{before: in.srv.Stats()}
	sp := startSampler(in.srv)
	lr.rtBefore = readRuntime()
	pass := len(p.mix)
	if p.pass > 0 {
		pass = p.pass
	}
	deadline := time.Now().Add(d)
	var longest time.Duration
	for len(lr.stretches) == 0 || time.Until(deadline) >= longest {
		t0 := time.Now()
		var s stretch
		var err error
		if p.probed {
			s, err = runProbedStretch(hs.ref.client, seqPk, pass, length, seq)
		} else {
			s, err = runStretch(hs, 1, 1, seqPk, pass, length, seq)
		}
		if err != nil {
			sp.finish()
			return nil, err
		}
		cl, err := runStretch(hs, inFlight, workers, closedPk, pass, length, closed)
		if err != nil {
			sp.finish()
			return nil, err
		}
		lr.stretches = append(lr.stretches, s, cl)
		longest = max(longest, time.Since(t0))
	}
	lr.rtAfter = readRuntime()
	sp.finish()
	lr.heap, lr.inFlightMax = sp.heapMedian(), sp.inFlight
	lr.after = in.srv.Stats()
	var all []sample
	for _, g := range lr.stretches {
		all = append(all, g.samples...)
	}
	lr.attempted = len(all)
	for _, s := range all {
		if s.err != nil {
			lr.failed++
			if isMismatch(s.err) {
				lr.mismatches++
			}
		}
	}
	lr.firstFailureReport = firstErrors(all, 3)
	return lr, nil
}

// runStretch reads the host's speed on as many goroutines as the
// stretch keeps ops in flight (at most one per CPU), then has workers
// take passes of the mix from pk until length has passed and the last
// pass is done. A closed-loop stretch reads the host's speed again
// after it and takes the geometric mean of the two readings: over ten
// runs per workload this left a spread of throughput_ops_s of 2 to 8%
// where the reading before alone left 4 to 8%.
func runStretch(hs *hostSpeed, inFlight, workers int, pk picker, pass int, length time.Duration, step func(*feed) []sample) (stretch, error) {
	threads := min(inFlight, runtime.NumCPU())
	host, err := hs.read(threads)
	if err != nil {
		return stretch{}, err
	}
	g := stretch{inFlight: inFlight, start: time.Now()}
	f := &feed{pk: pk, pass: pass, until: g.start.Add(length)}
	g.samples = drive(workers, f, step)
	g.end = f.dry
	if !g.seq() {
		after, err := hs.read(threads)
		if err != nil {
			return stretch{}, err
		}
		host = math.Sqrt(host * after)
	}
	g.slowdown = host
	for i := range g.samples {
		g.samples[i].slowdown = host
	}
	return g, nil
}

// runProbedStretch is a sequential stretch that sends a probe (see
// calib.go) before every op and one after the last, instead of reading
// the host's speed once before the stretch: an op's slowdown is the
// geometric mean of the probes just before and after it.
func runProbedStretch(ref *client, pk picker, pass int, length time.Duration, step func(*feed) []sample) (stretch, error) {
	runtime.GC()
	g := stretch{inFlight: 1, start: time.Now()}
	f := &feed{pk: pk, pass: pass, until: g.start.Add(length)}
	var last float64
	for {
		p, err := probe(ref)
		if err != nil {
			return stretch{}, err
		}
		if n := len(g.samples); n > 0 {
			g.samples[n-1].slowdown = math.Sqrt(last * p)
		}
		got := step(f)
		if got == nil {
			break
		}
		g.samples = append(g.samples, got...)
		last = p
	}
	g.end = f.dry
	return g, nil
}

// seqLatencies returns the verified latencies of the sequential
// stretches in milliseconds, grouped by op; nominal divides each by its
// slowdown, putting it in nominal-host units (see calib.go).
func seqLatencies(lr *loadResult, nominal bool) map[*op][]float64 {
	byOp := map[*op][]float64{}
	for _, g := range lr.stretches {
		if !g.seq() {
			continue
		}
		for _, s := range g.samples {
			if s.err == nil {
				lat := float64(s.latency()) / float64(time.Millisecond)
				if nominal {
					lat /= s.slowdown
				}
				byOp[s.op] = append(byOp[s.op], lat)
			}
		}
	}
	return byOp
}

// opLatency is the mean latency of an op of the mix, one in flight,
// with each op at its median: the mean over the sequential samples of
// their op's median latency. Every pass holds each op equally often,
// so the mix weighs each op by its share of a pass; the median keeps a
// moment the host stalled out of it.
func opLatency(byOp map[*op][]float64) float64 {
	var sum float64
	n := 0
	for _, lat := range byOp {
		sum += float64(len(lat)) * median(lat)
		n += len(lat)
	}
	return sum / float64(n)
}

// pooled returns every latency of byOp in ascending order.
func pooled(byOp map[*op][]float64) []float64 {
	var all []float64
	for _, lat := range byOp {
		all = append(all, lat...)
	}
	return sortedCopy(all)
}

// closedRate is the op-weighted completions of the closed-loop
// stretches per second of their windows (each from the stretch's start
// until its mix ran dry); nominal divides every window by its
// stretch's slowdown.
func closedRate(lr *loadResult, nominal bool) float64 {
	var done, seconds float64
	for _, g := range lr.stretches {
		if !g.seq() {
			window := g.end.Sub(g.start)
			done += windowRate(g.samples, g.start, window) * window.Seconds()
			if nominal {
				seconds += window.Seconds() / g.slowdown
			} else {
				seconds += window.Seconds()
			}
		}
	}
	return done / seconds
}

// endToEndMetrics derives the end-to-end metrics of an untraced run, in
// nominal-host units (see calib.go), each with its raw value.
func endToEndMetrics(p *plan, lr *loadResult, su *setupResult) []metricValue {
	byOp, rawByOp := seqLatencies(lr, true), seqLatencies(lr, false)
	lat, rawLat := pooled(byOp), pooled(rawByOp)
	percentiles := func(d metricDef, p float64) metricValue {
		m := d.value(percentile(lat, p))
		m.Raw, m.N = percentile(rawLat, p), len(lat)
		if !tailOK(len(lat), p) {
			m.Note = fmt.Sprintf("n=%d leaves %d samples beyond p%g, fewer than %d", len(lat), beyond(len(lat), p), p, minTail)
		}
		return m
	}
	latency := latencyMS.value(opLatency(byOp))
	latency.Raw, latency.N = opLatency(rawByOp), len(lat)
	closedN := len(lr.samples(false))
	tput := throughput.value(closedRate(lr, true))
	tput.Raw, tput.N = closedRate(lr, false), closedN
	setup := setupS.value(median(su.setupS))
	setup.N = len(su.setupS)
	out := []metricValue{
		setup,
		latency,
		percentiles(latencyP50, 50),
		percentiles(latencyP90, 90),
		percentiles(latencyP99, 99),
		tput,
	}
	if p.meanAccesses > 0 {
		m := simMaccS.value(tput.Value * p.meanAccesses / 1e6)
		m.Raw, m.N = tput.Raw*p.meanAccesses/1e6, closedN
		out = append(out, m)
	}
	return append(out,
		heapMB.value(lr.heap/1e6),
		errorPct.value(pct(lr.failed, lr.attempted)),
	)
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// p50Or0 is the median of the values, 0 when there are none (a layer
// the workload does not reach).
func p50Or0(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return median(values)
}

func meanOr0(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// loadLayerMetrics are the per-layer numbers the system exposes anyway,
// read around the untraced load phase: server and persistence
// counters, job envelope timestamps and runtime/metrics.
func loadLayerMetrics(lr *loadResult, rewarmS []float64) map[string]float64 {
	hits := lr.after.Cache.Hits - lr.before.Cache.Hits
	misses := lr.after.Cache.Misses - lr.before.Cache.Misses
	var submit, wait, run, polls []float64
	for _, s := range lr.samples(false) {
		if s.err != nil || s.polls == 0 {
			continue
		}
		submit = append(submit, float64(s.submit)/float64(time.Microsecond))
		wait = append(wait, float64(s.queueWait)/float64(time.Millisecond))
		run = append(run, float64(s.run)/float64(time.Millisecond))
		polls = append(polls, float64(s.polls))
	}
	ops := lr.attempted
	if ops == 0 {
		ops = 1
	}
	gcPct := 0.0
	if cpu := lr.rtAfter.totalCPU - lr.rtBefore.totalCPU; cpu > 0 {
		gcPct = 100 * (lr.rtAfter.gcCPU - lr.rtBefore.gcCPU) / cpu
	}
	waitP99 := 0.0
	if len(wait) > 0 {
		waitP99 = percentile(sortedCopy(wait), 99)
	}
	rewarm := make([]float64, len(rewarmS))
	for i, s := range rewarmS {
		rewarm[i] = s * 1000
	}
	return map[string]float64{
		"server.cache_hit_pct":   pct(int(hits), int(hits+misses)),
		"server.compiles":        float64(lr.after.Cache.Compiles - lr.before.Cache.Compiles),
		"server.in_flight_max":   float64(lr.inFlightMax),
		"jobs.submit_us":         p50Or0(submit),
		"jobs.queue_wait_ms":     p50Or0(wait),
		"jobs.queue_wait_p99_ms": waitP99,
		"jobs.run_ms":            p50Or0(run),
		"jobs.polls_per_job":     meanOr0(polls),
		"persist.rewarm_ms":      p50Or0(rewarm),
		"persist.journal_errors": float64(lr.after.Persist.JournalErrors - lr.before.Persist.JournalErrors),
		"runtime.alloc_kb_per_op": float64(lr.rtAfter.allocBytes-lr.rtBefore.allocBytes) /
			float64(ops) / 1e3,
		"runtime.gc_cpu_pct": gcPct,
	}
}

// spanLayerMetrics derives the per-layer numbers of the traced passes
// from their spans, and the tracing overhead from the untraced passes'
// loopback latencies.
func spanLayerMetrics(spans []span, untracedRoots []float64) map[string]float64 {
	kids := childrenOf(spans)
	byReq := map[int][]span{}
	durs := map[string][]float64{} // root-level spans by name, microseconds
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		byReq[s.RequestID] = append(byReq[s.RequestID], s)
		durs[s.Name] = append(durs[s.Name], us(s.dur()))
	}
	hasChild := func(s span, name string) bool {
		for _, c := range kids[s.ID] {
			if c.Name == name {
				return true
			}
		}
		return false
	}
	// The HTTP overhead of an op is its loopback time minus its handler
	// time. Ops differ widely in size, so the overhead is taken per op
	// and then its median, not as a difference of two medians; and the
	// two calls of one op can differ in cache state (either may be the
	// one that compiles), so only ops that found the workspace cached
	// both times count.
	var httpOverhead, self, assignIn, extendIn []float64
	for _, group := range byReq {
		var covering float64
		var root, handler *span
		for i, s := range group {
			switch s.Name {
			case "http.request":
				root = &group[i]
			case "server.handler":
				handler = &group[i]
			case "modelio.decode", "modelio.digest", "core.evaluate", "mhla.encode", "explore.sweep", "cachesim.simulate":
				covering += us(s.dur())
			}
		}
		if handler == nil {
			continue
		}
		if root != nil && !hasChild(*root, "workspace.compile") && !hasChild(*handler, "workspace.compile") {
			httpOverhead = append(httpOverhead, us(root.dur())-us(handler.dur()))
		}
		var inSitu []span
		for _, c := range kids[handler.ID] {
			switch c.Name {
			case "core.assign":
				assignIn = append(assignIn, us(c.dur()))
			case "core.extend":
				extendIn = append(extendIn, us(c.dur()))
			}
			if c.Name != "core.finish" {
				inSitu = append(inSitu, c)
			}
		}
		self = append(self, math.Max(0, us(selfTime(*handler, inSitu))-covering))
	}
	m := map[string]float64{
		"http.overhead_us":     p50Or0(httpOverhead),
		"server.self_us":       p50Or0(self),
		"modelio.decode_us":    p50Or0(durs["modelio.decode"]),
		"modelio.digest_us":    p50Or0(durs["modelio.digest"]),
		"workspace.compile_us": p50Or0(durs["workspace.compile"]),
		"core.assign_us":       p50Or0(assignIn),
		"core.extend_us":       p50Or0(extendIn),
		"core.evaluate_us":     p50Or0(durs["core.evaluate"]),
		"te.extend_us":         p50Or0(durs["te.extend"]),
		"explore.sweep_ms":     p50Or0(durs["explore.sweep"]) / 1e3,
		"mhla.encode_us":       p50Or0(durs["mhla.encode"]),
	}

	greedy := map[string][]float64{}
	var searchAllocs, states []float64
	simAccesses := map[string]float64{}
	simSeconds := map[string]float64{}
	simAllocs := map[string][]float64{}
	for _, s := range spans {
		switch s.Name {
		case "assign.search":
			searchAllocs = append(searchAllocs, float64(s.Attrs["allocs"].(uint64)))
			if app, ok := s.Attrs["app"].(string); ok {
				greedy[app] = append(greedy[app], us(s.dur()))
			}
		case "explore.sweep":
			// A sweep that failed has no state count; the op counts as
			// failed already.
			if n, ok := s.Attrs["states"].(int); ok {
				states = append(states, float64(n))
			}
		case "cachesim.simulate":
			if n, ok := s.Attrs["accesses"].(int64); ok {
				v := s.Attrs["variant"].(string)
				simAccesses[v] += float64(n)
				simSeconds[v] += s.dur().Seconds()
				simAllocs[v] = append(simAllocs[v], float64(s.Attrs["allocs"].(uint64)))
			}
		}
	}
	for _, app := range appNames {
		m["assign.greedy_us."+app] = p50Or0(greedy[app])
	}
	m["assign.allocs_per_search"] = meanOr0(searchAllocs)
	m["assign.bnb_states_per_sweep"] = meanOr0(states)
	for _, v := range simVariants {
		rate := 0.0
		if simSeconds[v] > 0 {
			rate = simAccesses[v] / simSeconds[v] / 1e6
		}
		m["cachesim.macc_s."+v] = rate
	}
	for _, v := range simVariants[1:] {
		m["cachesim.allocs_per_replay."+v] = meanOr0(simAllocs[v])
	}

	var traced []float64
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "http.request" {
			traced = append(traced, s.dur().Seconds())
		}
	}
	overhead := 0.0
	if base := p50Or0(untracedRoots); base > 0 {
		overhead = 100 * (p50Or0(traced) - base) / base
	}
	m["trace.overhead_pct"] = overhead
	return m
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runOptions select one workload run.
type runOptions struct {
	env
	traced bool
	// spans, when set, receives the traced run's spans.
	spans string
}

// runWorkload prepares the workload, boots its server, drives the load
// and, in a traced run, the traced passes. Inputs and references are
// built before anything is timed.
func runWorkload(ctx context.Context, w workload, o runOptions) (*report, error) {
	p, err := w.prepare(ctx, o.env)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	cfg := p.cfg
	var tr *tracer
	if o.traced {
		tr = newTracer()
		cfg.OnCompile, cfg.Progress = tr.onCompile, tr.onProgress
	}
	ref, err := startReference(o.cpus)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	reps, hs := setupReps, &hostSpeed{perRead: calibCalls, ref: ref}
	if o.smoke {
		reps, hs.perRead = smokeSetupReps, smokeCalibCalls
	}
	su, err := setup(p, cfg, reps, o.cpus, hs)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer su.release()

	total := time.Duration(o.seconds * float64(time.Second))
	loadDur := total
	if o.traced {
		// A traced run keeps a quarter of its time for the untraced
		// counters and spends the rest on traced passes.
		loadDur = total / 4
	}
	lr, err := runLoad(p, su.in, o.env, loadDur, hs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep := &report{
		Workload:   w.name,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.traced,
		Smoke:      o.smoke,
		Attempted:  lr.attempted,
		Failed:     lr.failed,
		Correct:    lr.mismatches == 0,
		HostFactor: hs.factor(),
	}
	if lr.failed > 0 {
		fmt.Fprintf(os.Stderr, "mhla-bench: %s: %d of %d ops failed: %s\n", w.name, lr.failed, lr.attempted, lr.firstFailureReport)
	}
	layers := loadLayerMetrics(lr, su.rewarmS)
	if !o.traced {
		rep.Metrics = endToEndMetrics(p, lr, su)
	} else {
		c := newClient(su.in.base, o.cpus)
		out := tr.tracedPhase(ctx, c, su.in.srv.Handler(), p, seedFor(o.seed, streamTrace), total-loadDur)
		c.close()
		rep.Attempted += out.attempted
		rep.Failed += len(out.failed)
		for _, err := range out.failed {
			if isMismatch(err) {
				rep.Correct = false
			}
		}
		if len(out.failed) > 0 {
			fmt.Fprintf(os.Stderr, "mhla-bench: %s: traced pass: %d of %d ops failed, first: %v\n",
				w.name, len(out.failed), out.attempted, out.failed[0])
		}
		for k, v := range spanLayerMetrics(tr.rec.all(), out.untracedRoots) {
			layers[k] = v
		}
		if o.spans != "" {
			if err := tr.rec.write(o.spans); err != nil {
				return nil, err
			}
		}
	}
	for _, d := range perLayer {
		if v, ok := layers[d.Name]; ok {
			rep.PerLayer = append(rep.PerLayer, d.value(v))
		}
	}
	return rep, nil
}
