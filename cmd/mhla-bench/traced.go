package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"mhla/internal/apps"
	"mhla/pkg/mhla"
)

// tracer records the spans of a traced run. onCompile and onProgress
// are installed as the server's OnCompile and Progress hooks; they
// record only while a capture is active, and a traced pass keeps one
// operation in flight, so every event belongs to the current capture.
type tracer struct {
	rec *recorder

	mu        sync.Mutex
	active    bool
	phases    bool
	events    []event
	lastPhase mhla.Phase

	// Facade inputs built once, outside any span.
	programs   map[string]*mhla.Program
	workspaces map[string]*mhla.Workspace
}

// event is an in-situ boundary: a workspace compile starting or the
// flow entering a phase.
type event struct {
	name string
	at   time.Time
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), programs: map[string]*mhla.Program{}, workspaces: map[string]*mhla.Workspace{}}
}

func (t *tracer) onCompile(string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.active {
		t.events = append(t.events, event{"workspace.compile", time.Now()})
	}
}

func (t *tracer) onProgress(p mhla.Progress) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Engines also report search snapshots under the assign phase; only
	// a phase change is a boundary.
	if t.active && t.phases && p.Phase != t.lastPhase {
		t.lastPhase = p.Phase
		t.events = append(t.events, event{"core." + string(p.Phase), time.Now()})
	}
}

// capture records fn as a span whose children are cut at the in-situ
// events fn caused: each child runs from its event to the next one or
// to the span's end. The last flow phase, evaluate, therefore also
// holds result encoding and the response write, so its child is named
// core.finish. With phases false (sweeps and replays run their points
// concurrently or report no phases) no children are cut.
func (t *tracer) capture(name string, req int, phases bool, fn func() error) error {
	t.mu.Lock()
	t.active, t.phases, t.events, t.lastPhase = true, phases, t.events[:0], ""
	t.mu.Unlock()
	start := time.Now()
	err := fn()
	end := time.Now()
	t.mu.Lock()
	t.active = false
	events := append([]event(nil), t.events...)
	t.mu.Unlock()
	id := t.rec.add(name, 0, req, start, end, nil)
	if !phases {
		return err
	}
	for i, ev := range events {
		to := end
		if i+1 < len(events) {
			to = events[i+1].at
		}
		child := ev.name
		if child == "core."+string(mhla.PhaseEvaluate) {
			child = "core.finish"
		}
		t.rec.add(child, id, req, ev.at, to, nil)
	}
	return err
}

// rung times one direct facade call as a root span of the request.
// With allocs set, the heap allocations the call made (the
// runtime.MemStats.Mallocs delta, read outside the timed interval) are
// stored in attrs["allocs"].
func (t *tracer) rung(name string, req int, attrs map[string]any, allocs bool, fn func() error) error {
	var ms runtime.MemStats
	var before uint64
	if allocs {
		runtime.ReadMemStats(&ms)
		before = ms.Mallocs
	}
	start := time.Now()
	err := fn()
	end := time.Now()
	if allocs {
		runtime.ReadMemStats(&ms)
		if attrs == nil {
			attrs = map[string]any{}
		}
		attrs["allocs"] = ms.Mallocs - before
	}
	t.rec.add(name, 0, req, start, end, attrs)
	return err
}

// catalog returns the built catalog program of an op (cached).
func (t *tracer) catalog(src opSource) *mhla.Program {
	key := src.app + "/" + src.scale.String()
	if p, ok := t.programs[key]; ok {
		return p
	}
	app, err := apps.ByName(src.app)
	if err != nil {
		panic(err) // ops only name catalog applications
	}
	p := app.Build(src.scale)
	t.programs[key] = p
	return p
}

// workspace returns the compiled workspace of a catalog program
// (cached).
func (t *tracer) workspace(src opSource) (*mhla.Workspace, error) {
	key := src.app + "/" + src.scale.String()
	if ws, ok := t.workspaces[key]; ok {
		return ws, nil
	}
	ws, err := mhla.Compile(t.catalog(src))
	if err != nil {
		return nil, err
	}
	t.workspaces[key] = ws
	return ws, nil
}

// untracedOp runs an op's loopback request with nothing recorded.
func untracedOp(c *client, o *op) error {
	if o.kind == "sweep" {
		return runBatch(c, []submission{{op: o, priority: 5}})[0].err
	}
	return c.sync(o)
}

// traceRoot records an operation's loopback request as its root span,
// http.request, with the in-situ children the server's hooks mark.
func (t *tracer) traceRoot(c *client, o *op, req int) error {
	if o.kind == "sweep" {
		return t.traceJob(c, o, req)
	}
	return t.capture("http.request", req, o.kind == "run", func() error { return c.sync(o) })
}

// traceLadder records the rest of an operation: the same body sent
// through the server's handler into a recorder (server.handler), then
// the ladder of direct facade calls that redo its work layer by layer.
func (t *tracer) traceLadder(ctx context.Context, h http.Handler, o *op, req int) error {
	err := t.capture("server.handler", req, o.kind == "run", func() error {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body)))
		return o.expect(rr.Code, rr.Body.Bytes())
	})
	if err != nil {
		return err
	}
	switch o.kind {
	case "run":
		return t.runRungs(ctx, o, req)
	case "sweep":
		return t.sweepRungs(ctx, o, req)
	default:
		return t.simulateRungs(ctx, o, req)
	}
}

// traceJob records a sweep job's root span, from submission to the
// verified result, with the submit round trip as its child.
func (t *tracer) traceJob(c *client, o *op, req int) error {
	s := runBatch(c, []submission{{op: o, priority: 5}})[0]
	id := t.rec.add("http.request", 0, req, s.start, s.end, map[string]any{"polls": s.polls})
	t.rec.add("jobs.submit", id, req, s.start, s.start.Add(s.submit), nil)
	return s.err
}

// decodeRungs times decoding an op's inline program (and platform,
// when it has one) and digesting the program.
func (t *tracer) decodeRungs(req int, src opSource) (*mhla.Program, *mhla.Platform, error) {
	var prog *mhla.Program
	var plat *mhla.Platform
	err := t.rung("modelio.decode", req, nil, false, func() (err error) {
		if prog, err = mhla.DecodeProgram(src.program); err != nil || src.platform == nil {
			return err
		}
		plat, err = mhla.DecodePlatform(src.platform)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = t.rung("modelio.digest", req, nil, false, func() error {
		_, err := mhla.ProgramDigest(prog)
		return err
	})
	return prog, plat, err
}

// compileRung times compiling a program's workspace.
func (t *tracer) compileRung(req int, prog *mhla.Program) (*mhla.Workspace, error) {
	var ws *mhla.Workspace
	err := t.rung("workspace.compile", req, nil, false, func() (err error) {
		ws, err = mhla.Compile(prog)
		return err
	})
	return ws, err
}

// encodeRung times encoding a result and checks the bytes against the
// op's reference.
func (t *tracer) encodeRung(req int, o *op, encode func() ([]byte, error)) error {
	var body []byte
	if err := t.rung("mhla.encode", req, nil, false, func() (err error) {
		body, err = encode()
		return err
	}); err != nil {
		return err
	}
	if !bytes.Equal(body, o.want) {
		return fmt.Errorf("%s encode rung: %w", o.label, errMismatch)
	}
	return nil
}

func (t *tracer) runRungs(ctx context.Context, o *op, req int) error {
	src := o.src
	var prog *mhla.Program
	var plat *mhla.Platform
	if src.program != nil {
		var err error
		if prog, plat, err = t.decodeRungs(req, src); err != nil {
			return err
		}
	} else {
		prog, plat = t.catalog(src), mhla.TwoLevel(src.l1)
	}
	ws, err := t.compileRung(req, prog)
	if err != nil {
		return err
	}
	var res *mhla.Result
	if err := t.capture("core.run", req, true, func() (err error) {
		res, err = mhla.Run(ctx, nil, mhla.WithWorkspace(ws), mhla.WithPlatform(plat), mhla.WithProgress(t.onProgress))
		return err
	}); err != nil {
		return err
	}
	var attrs map[string]any
	if src.app != "" {
		attrs = map[string]any{"app": src.app}
	}
	if err := t.rung("assign.search", req, attrs, true, func() error {
		_, err := mhla.Search(ctx, ws.Analysis, plat)
		return err
	}); err != nil {
		return err
	}
	if err := t.rung("te.extend", req, nil, false, func() error {
		_, err := mhla.Extend(res.Assignment)
		return err
	}); err != nil {
		return err
	}
	t.rung("core.evaluate", req, nil, false, func() error {
		res.Assignment.Evaluate(mhla.EvalOptions{Ideal: true})
		return nil
	})
	return t.encodeRung(req, o, func() ([]byte, error) { return mhla.ResultJSON(res) })
}

func (t *tracer) sweepRungs(ctx context.Context, o *op, req int) error {
	prog, _, err := t.decodeRungs(req, o.src)
	if err != nil {
		return err
	}
	ws, err := t.compileRung(req, prog)
	if err != nil {
		return err
	}
	var sw *mhla.Sweep
	attrs := map[string]any{}
	if err := t.rung("explore.sweep", req, attrs, false, func() (err error) {
		// The server's sweep settings: one engine worker per point,
		// the sweep pool owning the parallelism.
		sw, err = mhla.SweepL1(ctx, nil, nil, mhla.WithWorkspace(ws), mhla.WithEngine(mhla.BnB),
			mhla.WithMaxStates(sweepMaxStates), mhla.WithWorkers(1))
		return err
	}); err != nil {
		return err
	}
	states := 0
	for _, p := range sw.Points {
		states += p.Result.SearchStates
	}
	attrs["states"] = states
	return t.encodeRung(req, o, sw.JSON)
}

func (t *tracer) simulateRungs(ctx context.Context, o *op, req int) error {
	ws, err := t.workspace(o.src)
	if err != nil {
		return err
	}
	var res *mhla.CacheResult
	attrs := map[string]any{"variant": o.src.variant}
	if err := t.rung("cachesim.simulate", req, attrs, true, func() (err error) {
		res, err = mhla.Simulate(ctx, nil, *o.src.cache, mhla.WithWorkspace(ws), mhla.WithPlatform(mhla.TwoLevel(o.src.l1)))
		return err
	}); err != nil {
		return err
	}
	attrs["accesses"] = res.Accesses
	return t.encodeRung(req, o, func() ([]byte, error) { return mhla.SimulateJSON(res) })
}

// maxTracedPasses bounds the traced passes of one run, which bounds
// the span file.
const maxTracedPasses = 8

// tracedOutcome is what the traced phase measured.
type tracedOutcome struct {
	untracedRoots []float64 // loopback op latencies with nothing recorded, seconds
	attempted     int
	failed        []error
}

// tracedPhase alternates an untraced and a traced sequential pass over
// a seeded sample of the pool until the budget is spent (at least one
// of each, at most maxTracedPasses). A traced pass sends all its
// loopback requests back to back, as the untraced pass does, and only
// then the handler calls and facade ladders of the same ops: the
// ladders allocate heavily, and a request right after one would pay
// for their garbage, which is not tracing overhead.
func (t *tracer) tracedPhase(ctx context.Context, c *client, h http.Handler, p *plan, seed int64, budget time.Duration) tracedOutcome {
	n := p.sample
	if n == 0 {
		n = len(p.pool)
	}
	pk := p.picker(seed)
	sample := make([]*op, n)
	for i := range sample {
		sample[i] = pk.next()
	}
	var out tracedOutcome
	deadline := time.Now().Add(budget)
	req := 0
	for pass := 0; pass < maxTracedPasses && (pass == 0 || time.Now().Before(deadline)); pass++ {
		// Both root loops start from a collected heap, so neither pays
		// for the garbage of the ladders before it.
		runtime.GC()
		for _, o := range sample {
			out.attempted++
			t0 := time.Now()
			if err := untracedOp(c, o); err != nil {
				out.failed = append(out.failed, err)
				continue
			}
			out.untracedRoots = append(out.untracedRoots, time.Since(t0).Seconds())
		}
		runtime.GC()
		first := req + 1
		errs := make([]error, len(sample))
		for i, o := range sample {
			errs[i] = t.traceRoot(c, o, first+i)
		}
		for i, o := range sample {
			if errs[i] == nil {
				errs[i] = t.traceLadder(ctx, h, o, first+i)
			}
			out.attempted++
			if errs[i] != nil {
				out.failed = append(out.failed, errs[i])
			}
		}
		req += len(sample)
	}
	return out
}
