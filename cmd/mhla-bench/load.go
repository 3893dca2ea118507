package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"mhla/internal/server"
)

// instance is an in-process server listening on a loopback port.
type instance struct {
	srv    *server.Server
	http   *http.Server
	base   string
	served chan struct{} // closed when Serve returns
}

func start(cfg server.Config) (*instance, error) {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	in := &instance{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		defer close(in.served)
		in.http.Serve(ln)
	}()
	return in, nil
}

// close drains the HTTP server, stops the MHLA server (final snapshot
// flush when persistence is on) and waits for the serve loop to exit.
func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := in.http.Shutdown(ctx); err != nil {
		in.http.Close()
	}
	<-in.served
	in.srv.Close()
}

// client issues the generated requests. Its transport opens at most
// one connection per CPU, so the load never needs more connections
// than the host has cores.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
			},
		},
		base: base,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and reads the whole response.
func (c *client) call(method, path string, body []byte, apiKey string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// errMismatch marks a successful response whose bytes differ from the
// facade reference.
var errMismatch = errors.New("response differs from the facade reference")

// op is one request of a workload's pool, with the exact bytes that
// must come back.
type op struct {
	kind  string // "run", "sweep" or "simulate"
	label string // application, variant or scenario, for error messages
	path  string // endpoint of the synchronous form
	body  []byte // synchronous request body (for jobs, the nested request)
	want  []byte // reference response bytes
	// weight scales the op in the throughput count: 1, or for replays
	// its share of the pool's mean trace length, so a window that ends
	// mid-pass is not biased by which replays it happened to hold.
	weight float64
	src    opSource
}

// expect compares a response against the reference.
func (o *op) expect(status int, data []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", o.path, o.label, status, data)
	}
	if !bytes.Equal(data, o.want) {
		return fmt.Errorf("%s %s: %w", o.path, o.label, errMismatch)
	}
	return nil
}

// sync sends the op's synchronous request and verifies the response.
func (c *client) sync(o *op) error {
	status, data, err := c.call(http.MethodPost, o.path, o.body, "")
	if err != nil {
		return err
	}
	return o.expect(status, data)
}

// jobEnvelope is the part of a /v1/jobs envelope the generator reads.
type jobEnvelope struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

// submission is one async job of a sweep batch.
type submission struct {
	op       *op
	priority int
	apiKey   string
}

func (s submission) body() []byte {
	return []byte(fmt.Sprintf(`{"kind":%q,"priority":%d,"request":%s}`, s.op.kind, s.priority, s.op.body))
}

// sample is the outcome of one op.
type sample struct {
	op         *op
	start, end time.Time // send time to verified
	err        error
	weight     float64
	// slowdown is the host's while the op ran (see calib.go).
	slowdown float64
	// Job ops only.
	submit    time.Duration
	polls     int
	queueWait time.Duration
	run       time.Duration
}

func (s sample) latency() time.Duration { return s.end.Sub(s.start) }

// picker yields a workload's ops in a seeded order.
type picker interface{ next() *op }

// cycle picks the pool in its own order, over and over.
type cycle struct {
	mu   sync.Mutex
	pool []*op
	i    int
}

func (c *cycle) next() *op {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.pool[c.i%len(c.pool)]
	c.i++
	return o
}

// rounds picks every pool op exactly once per round, each round in a
// fresh seeded order, so any window of the sequence holds the pool's
// mix to within one round.
type rounds struct {
	mu   sync.Mutex
	rng  *rand.Rand
	pool []*op
	perm []int
}

func newRounds(pool []*op, seed int64) *rounds {
	return &rounds{rng: rand.New(rand.NewSource(seed)), pool: pool}
}

func (r *rounds) next() *op {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.perm) == 0 {
		r.perm = r.rng.Perm(len(r.pool))
	}
	o := r.pool[r.perm[0]]
	r.perm = r.perm[1:]
	return o
}

// zipfDeck is the deck of Zipf draws over a pool: op k (0-based)
// appears in proportion to 1/(k+1), Zipf popularity with exponent 1,
// and at least once. Dealt in rounds, every deck holds the same draws
// in a fresh seeded order, so runs with different seeds differ in the
// order of the draws, not in how often the rare, costly programs come
// up.
func zipfDeck(pool []*op, size int) []*op {
	var h float64
	for k := range pool {
		h += 1 / float64(k+1)
	}
	var deck []*op
	for k, o := range pool {
		n := max(1, int(math.Round(float64(size)/float64(k+1)/h)))
		for i := 0; i < n; i++ {
			deck = append(deck, o)
		}
	}
	return deck
}

// feed hands out the ops of one stretch in whole passes of the
// workload's mix: a pass starts only before the stretch's deadline,
// and once it is used up after the deadline the feed is dry. Every
// stretch therefore holds the mix exactly, whatever its ops cost.
type feed struct {
	mu    sync.Mutex
	pk    picker
	pass  int // ops per pass
	left  int // ops left in the current pass
	until time.Time
	dry   time.Time // when a client first found the feed dry
}

// take returns the next n ops (fewer at the end of a pass), or nil once
// the feed is dry.
func (f *feed) take(n int) []*op {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left == 0 {
		if !time.Now().Before(f.until) {
			if f.dry.IsZero() {
				f.dry = time.Now()
			}
			return nil
		}
		f.left = f.pass
	}
	ops := make([]*op, min(n, f.left))
	for i := range ops {
		ops[i] = f.pk.next()
	}
	f.left -= len(ops)
	return ops
}

// drive runs workers goroutines that each repeat step until the feed
// is dry, and returns the samples of every step.
func drive(workers int, f *feed, step func(*feed) []sample) []sample {
	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				got := step(f)
				if got == nil {
					break
				}
				mine = append(mine, got...)
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples
}

// syncStep sends the feed's next op and verifies the response.
func syncStep(c *client) func(*feed) []sample {
	return func(f *feed) []sample {
		ops := f.take(1)
		if ops == nil {
			return nil
		}
		t := time.Now()
		err := c.sync(ops[0])
		return []sample{{op: ops[0], start: t, end: time.Now(), err: err, weight: ops[0].weight}}
	}
}

// jobBatchSize and jobKeys shape the async workload: batches of eight
// jobs with distinct priorities, spread over two API-key tenants.
const jobBatchSize = 8

var jobKeys = []string{"bench-tenant-a", "bench-tenant-b"}

// jobStep submits a batch of the feed's next n jobs with seeded
// priorities and tenants, polls each every pollEvery until it finishes,
// and fetches and verifies its result.
func jobStep(c *client, rng *rand.Rand, n int) func(*feed) []sample {
	return func(f *feed) []sample {
		ops := f.take(n)
		if ops == nil {
			return nil
		}
		subs := make([]submission, len(ops))
		prio := rng.Perm(len(ops))
		for i, o := range ops {
			subs[i] = submission{op: o, priority: prio[i], apiKey: jobKeys[rng.Intn(len(jobKeys))]}
		}
		return runBatch(c, subs)
	}
}

const (
	pollEvery  = 2 * time.Millisecond
	jobTimeout = 2 * time.Minute
)

// runBatch submits the jobs, then polls them until all have finished.
func runBatch(c *client, subs []submission) []sample {
	out := make([]sample, len(subs))
	ids := make([]string, len(subs))
	pending := 0
	for i, s := range subs {
		out[i] = sample{op: s.op, start: time.Now(), weight: s.op.weight}
		status, data, err := c.call(http.MethodPost, "/v1/jobs", s.body(), s.apiKey)
		out[i].submit = time.Since(out[i].start)
		var env jobEnvelope
		switch {
		case err != nil:
		case status != http.StatusAccepted:
			err = fmt.Errorf("submit %s: status %d: %.200s", s.op.label, status, data)
		default:
			err = json.Unmarshal(data, &env)
		}
		if err != nil {
			out[i].err, out[i].end = err, time.Now()
			continue
		}
		ids[i] = env.ID
		pending++
	}
	for pending > 0 {
		time.Sleep(pollEvery)
		for i, s := range subs {
			if ids[i] == "" || !out[i].end.IsZero() {
				continue
			}
			done, err := pollJob(c, s.op, ids[i], &out[i])
			if err == nil && !done && time.Since(out[i].start) > jobTimeout {
				err = fmt.Errorf("job %s (%s) still unfinished after %v", ids[i], s.op.label, jobTimeout)
			}
			if done || err != nil {
				out[i].err, out[i].end = err, time.Now()
				pending--
			}
		}
	}
	return out
}

// pollJob reads the job envelope once; a finished job has its result
// fetched and verified and its queue wait and run time recorded.
func pollJob(c *client, o *op, id string, s *sample) (done bool, err error) {
	s.polls++
	status, data, err := c.call(http.MethodGet, "/v1/jobs/"+id, nil, "")
	if err != nil {
		return false, err
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("poll %s: status %d: %.200s", id, status, data)
	}
	var env jobEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return false, fmt.Errorf("poll %s: %w", id, err)
	}
	switch env.State {
	case "done":
	case "failed", "canceled":
		return false, fmt.Errorf("job %s (%s) %s", id, o.label, env.State)
	default:
		return false, nil
	}
	if env.Started != nil && env.Finished != nil {
		s.queueWait = env.Started.Sub(env.Created)
		s.run = env.Finished.Sub(*env.Started)
	}
	status, data, err = c.call(http.MethodGet, "/v1/jobs/"+id+"/result", nil, "")
	if err != nil {
		return false, err
	}
	return true, o.expect(status, data)
}

// windowRate is the op-weighted completion rate inside [t0, t0+d): an
// op that straddles the window's end counts for the share of its
// duration that lies inside.
func windowRate(samples []sample, t0 time.Time, d time.Duration) float64 {
	end := t0.Add(d)
	var done float64
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		total := s.end.Sub(s.start)
		inside := minTime(s.end, end).Sub(maxTime(s.start, t0))
		switch {
		case inside <= 0:
		case total <= 0 || inside >= total:
			done += s.weight
		default:
			done += s.weight * float64(inside) / float64(total)
		}
	}
	return done / d.Seconds()
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// The runtime/metrics the benchmark reads.
const (
	rmHeapLive   = "/gc/heap/live:bytes"
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// runtimeCounters are the cumulative runtime counters around a phase.
type runtimeCounters struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: rmAllocBytes}, {Name: rmGCCPU}, {Name: rmTotalCPU}}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// sampler reads the live heap and the server's in-flight gauge every
// 10 ms.
type sampler struct {
	stop     chan struct{}
	done     chan struct{}
	heap     []float64
	inFlight int64
}

func startSampler(srv *server.Server) *sampler {
	sp := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sp.done)
		s := []metrics.Sample{{Name: rmHeapLive}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			sp.heap = append(sp.heap, float64(s[0].Value.Uint64()))
			sp.inFlight = max(sp.inFlight, srv.Stats().InFlight)
			select {
			case <-sp.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return sp
}

// finish stops the sampler and waits for it; its readings are then
// safe to read.
func (sp *sampler) finish() {
	close(sp.stop)
	<-sp.done
}

// heapMedian is the median live-heap sample in bytes: the heap its
// objects held at the end of the latest collection's marking. Unlike
// the heap in use, which is a sawtooth whose top depends on when each
// collection starts, it steps only as the retained state changes, and
// the load runs hundreds of collections a run.
func (sp *sampler) heapMedian() float64 { return median(sp.heap) }

// firstErrors keeps the first few distinct failure messages of a run
// for the error report.
func firstErrors(samples []sample, limit int) string {
	var msgs []string
	seen := map[string]bool{}
	for _, s := range samples {
		if s.err == nil || seen[s.err.Error()] {
			continue
		}
		seen[s.err.Error()] = true
		msgs = append(msgs, s.err.Error())
		if len(msgs) == limit {
			break
		}
	}
	return strings.Join(msgs, "; ")
}

func isMismatch(err error) bool { return errors.Is(err, errMismatch) }
