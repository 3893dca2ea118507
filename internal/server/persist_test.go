package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mhla/internal/persist"
	"mhla/pkg/mhla"
)

// persistTestDir is the snapshot directory name used across the
// persistence tests (paths are plain keys inside MemFS).
const persistTestDir = "snap"

// waitFor polls cond until it holds or the (real-time) deadline hits.
func waitFor(t testing.TB, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// secondRunRequest is a second, distinct catalog program, so tests can
// populate the snapshot with more than one workspace.
const secondRunRequest = `{"app":"sobel","scale":"test","l1_bytes":512}`

// syncRun POSTs a /v1/run request and returns the (must-succeed)
// response bytes.
func syncRun(t testing.TB, baseURL, body string) []byte {
	t.Helper()
	code, resp := postTB(t, baseURL+"/v1/run", body)
	if code != http.StatusOK {
		t.Fatalf("run: status %d: %s", code, resp)
	}
	return resp
}

// TestRestartDifferential is the end-to-end crash-recovery contract:
// serve warm requests, snapshot, kill the server mid-job with a queued
// backlog, restart on the same artifacts, and require (a) byte-identical
// sync responses served from the rewarmed cache without recompiling,
// (b) the queued jobs to complete under their original IDs with results
// byte-identical to the crash-free sync responses, and (c) the mid-run
// job to come back as interrupted and retry to the same bytes after its
// backoff.
func TestRestartDifferential(t *testing.T) {
	mem := persist.NewMemFS()
	clk := persist.NewManualClock(time.Unix(1_700_000_000, 0))

	// Server A: one worker (so jobs queue behind a blocker), a progress
	// gate that can hold the running job mid-flow.
	var blocking atomic.Bool
	gate := make(chan struct{})
	cfgA := Config{
		JobWorkers:       1,
		SnapshotDir:      persistTestDir,
		SnapshotInterval: time.Second,
		PersistFS:        mem,
		PersistClock:     clk,
		Progress: func(p mhla.Progress) {
			if blocking.Load() {
				<-gate
			}
		},
	}
	srvA, tsA := newTestServer(t, cfgA)
	if st := srvA.Stats().Persist; !st.Enabled {
		t.Fatal("persistence not enabled on a configured server")
	}

	// Warm two programs synchronously and record the reference bytes.
	want1 := syncRun(t, tsA.URL, quickRunRequest)
	want2 := syncRun(t, tsA.URL, secondRunRequest)

	// Let the periodic flush persist the key set.
	clk.Advance(1100 * time.Millisecond)
	waitFor(t, "snapshot flush", func() bool { return srvA.Stats().Persist.SnapshotsWritten >= 1 })

	// One job caught mid-run, two left queued.
	blocking.Store(true)
	running := submitJob(t, tsA.URL, "run", quickRunRequest, "alice", 5)
	waitJobState(t, tsA.URL, running.ID, "running")
	queued1 := submitJob(t, tsA.URL, "run", quickRunRequest, "bob", 5)
	queued2 := submitJob(t, tsA.URL, "run", secondRunRequest, "carol", 7)

	// Crash. Abort stops persistence instantly (no flush, no terminal
	// records) and then tears the job layer down; the gated worker only
	// unwinds after the gate opens, exactly like a task dying mid-fault.
	aborted := make(chan struct{})
	go func() { srvA.Abort(); close(aborted) }()
	waitFor(t, "persistence to stop", func() bool { return !srvA.Stats().Persist.Enabled })
	close(gate)
	<-aborted

	// Server B: same artifacts, no gate.
	cfgB := Config{
		JobWorkers:       1,
		SnapshotDir:      persistTestDir,
		SnapshotInterval: time.Second,
		PersistFS:        mem,
		PersistClock:     clk,
	}
	srvB, tsB := newTestServer(t, cfgB)
	st := srvB.Stats().Persist
	if !st.Enabled || st.RecoveredQueued != 2 || st.RecoveredInterrupted != 1 || st.RecoveredDropped != 0 {
		t.Fatalf("recovery stats = %+v, want 2 queued + 1 interrupted", st)
	}

	// The queued jobs complete under their original IDs with the exact
	// sync bytes — as if the crash never happened.
	for _, job := range []struct {
		id, want string
		ref      []byte
	}{{queued1.ID, quickRunRequest, want1}, {queued2.ID, secondRunRequest, want2}} {
		waitJobState(t, tsB.URL, job.id, "done")
		code, body := get(t, tsB.URL+"/v1/jobs/"+job.id+"/result")
		if code != http.StatusOK {
			t.Fatalf("restored job %s result: status %d: %s", job.id, code, body)
		}
		if !bytes.Equal(body, job.ref) {
			t.Errorf("restored job %s result differs from the crash-free sync response", job.id)
		}
	}

	// The mid-run job is interrupted, not lost and not running, until
	// its backoff expires; then it retries to the same bytes.
	if env := getJob(t, tsB.URL, running.ID); env.State != "interrupted" {
		t.Fatalf("mid-run job state after restart = %q, want interrupted", env.State)
	}
	clk.Advance(time.Second) // attempts=1: jittered delay <= the 500ms base delay
	waitJobState(t, tsB.URL, running.ID, "done")
	code, body := get(t, tsB.URL+"/v1/jobs/"+running.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("retried job result: status %d: %s", code, body)
	}
	if !bytes.Equal(body, want1) {
		t.Error("retried job result differs from the crash-free sync response")
	}

	// The rewarmed cache serves the warm programs without recompiling.
	waitFor(t, "rewarm", func() bool { return srvB.Stats().Persist.RewarmDone })
	if st := srvB.Stats().Persist; st.Rewarmed != 2 || st.RewarmFailed != 0 {
		t.Fatalf("rewarm stats = %+v, want 2 rewarmed, 0 failed", st)
	}
	compiles := srvB.Stats().Cache.Compiles
	hits := srvB.Stats().Cache.Hits
	if got := syncRun(t, tsB.URL, quickRunRequest); !bytes.Equal(got, want1) {
		t.Error("sync response after restart differs from before the crash")
	}
	if got := syncRun(t, tsB.URL, secondRunRequest); !bytes.Equal(got, want2) {
		t.Error("sync response after restart differs from before the crash")
	}
	cache := srvB.Stats().Cache
	if cache.Compiles != compiles {
		t.Errorf("warm re-sends recompiled: %d -> %d compiles", compiles, cache.Compiles)
	}
	if cache.Hits < hits+2 {
		t.Errorf("warm re-sends missed the rewarmed cache: hits %d -> %d", hits, cache.Hits)
	}

	// New submissions never collide with recovered IDs.
	fresh := submitJob(t, tsB.URL, "run", quickRunRequest, "dave", 5)
	for _, old := range []string{running.ID, queued1.ID, queued2.ID} {
		if fresh.ID == old {
			t.Fatalf("fresh job reused recovered ID %s", old)
		}
	}
}

// thirdRunRequest is a third distinct catalog program, one more than a
// two-entry cache holds.
const thirdRunRequest = `{"app":"me","scale":"test","l1_bytes":512}`

// snapshotDigests reads the snapshot on mem and returns its digests in
// file order.
func snapshotDigests(t *testing.T, mem *persist.MemFS) []string {
	t.Helper()
	records, err := persist.ReadSnapshot(mem, persistTestDir)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	digests := make([]string, len(records))
	for i, rec := range records {
		digests[i] = rec.Digest
	}
	return digests
}

// compileLog is an OnCompile hook recording the compiled digests in
// order.
type compileLog struct {
	mu      sync.Mutex
	digests []string
}

func (l *compileLog) record(digest string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.digests = append(l.digests, digest)
}

func (l *compileLog) list() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.digests)
}

// TestRestartSnapshotFollowsCache: the snapshot is the workspace
// cache's resident set in recency order, plus the loaded records a
// rewarm has not reached yet; a record whose rewarm fails is dropped.
func TestRestartSnapshotFollowsCache(t *testing.T) {
	// warm boots a server on mem, runs the requests in order, closes it
	// gracefully and returns the digests compiled, in order.
	warm := func(t *testing.T, mem *persist.MemFS, entries int, requests ...string) []string {
		t.Helper()
		var compiled compileLog
		srv, ts := newTestServer(t, Config{CacheEntries: entries, SnapshotDir: persistTestDir, PersistFS: mem,
			PersistClock: persist.NewManualClock(time.Unix(0, 0)), OnCompile: compiled.record})
		for _, req := range requests {
			syncRun(t, ts.URL, req)
		}
		srv.Close()
		return compiled.list()
	}

	t.Run("recency order at the cache bound", func(t *testing.T) {
		mem := persist.NewMemFS()
		// A, B, A, C through a two-entry cache: B is the least recent
		// when C arrives, so the cache keeps A then C.
		compiled := warm(t, mem, 2, quickRunRequest, secondRunRequest, quickRunRequest, thirdRunRequest)
		if len(compiled) != 3 {
			t.Fatalf("compiled %d programs, want 3", len(compiled))
		}
		a, c := compiled[0], compiled[2]
		if got := snapshotDigests(t, mem); !slices.Equal(got, []string{a, c}) {
			t.Fatalf("snapshot = %.12q, want the resident [A C] = %.12q", got, []string{a, c})
		}
	})

	t.Run("close mid-rewarm keeps the unreached records", func(t *testing.T) {
		mem := persist.NewMemFS()
		compiled := warm(t, mem, 0, quickRunRequest, secondRunRequest, thirdRunRequest)
		if got := snapshotDigests(t, mem); !slices.Equal(got, compiled) {
			t.Fatalf("snapshot = %.12q, want %.12q", got, compiled)
		}
		// Hold the rewarm inside its first compile, cut it there the
		// way Close does, then let that compile finish.
		entered, gate := make(chan struct{}), make(chan struct{})
		var first sync.Once
		srv := New(Config{SnapshotDir: persistTestDir, PersistFS: mem, PersistClock: persist.NewManualClock(time.Unix(0, 0)),
			OnCompile: func(string) { first.Do(func() { close(entered); <-gate }) }})
		<-entered
		srv.persist.rewarmCancel()
		close(gate)
		srv.Close()
		if st := srv.Stats().Persist; st.Rewarmed != 1 || st.RewarmDone {
			t.Fatalf("rewarm stats = %+v, want a rewarm cut after one record", st)
		}
		// The two unreached records stay, ahead of the rewarmed one.
		want := []string{compiled[1], compiled[2], compiled[0]}
		if got := snapshotDigests(t, mem); !slices.Equal(got, want) {
			t.Fatalf("snapshot = %.12q, want %.12q", got, want)
		}
	})

	t.Run("a failed rewarm leaves the snapshot", func(t *testing.T) {
		mem := persist.NewMemFS()
		warm(t, mem, 0, quickRunRequest, secondRunRequest)
		good, err := persist.ReadSnapshot(mem, persistTestDir)
		if err != nil || len(good) != 2 {
			t.Fatalf("warm snapshot: %d records, err %v", len(good), err)
		}
		// Checksummed bytes that are not a canonical program: the
		// snapshot decodes, the rewarm of this record fails.
		broken := []byte(`{"name":"broken"}`)
		bad := persist.SnapshotRecord{Digest: persist.DigestBytes(broken), Program: broken}
		if err := persist.WriteSnapshot(mem, persistTestDir, []persist.SnapshotRecord{good[0], bad, good[1]}); err != nil {
			t.Fatal(err)
		}
		clk := persist.NewManualClock(time.Unix(0, 0))
		srv, _ := newTestServer(t, Config{SnapshotDir: persistTestDir, SnapshotInterval: time.Second,
			PersistFS: mem, PersistClock: clk})
		waitFor(t, "rewarm", func() bool { return srv.Stats().Persist.RewarmDone })
		if st := srv.Stats().Persist; st.Rewarmed != 2 || st.RewarmFailed != 1 {
			t.Fatalf("rewarm stats = %+v, want 2 rewarmed, 1 failed", st)
		}
		clk.Advance(1100 * time.Millisecond)
		waitFor(t, "snapshot flush", func() bool { return srv.Stats().Persist.SnapshotsWritten >= 1 })
		want := []string{good[0].Digest, good[1].Digest}
		if got := snapshotDigests(t, mem); !slices.Equal(got, want) {
			t.Fatalf("snapshot after flush = %.12q, want %.12q", got, want)
		}
	})
}

// TestRestartDropsTerminalJobs: jobs that reached a terminal state
// before the restart stay terminal — they are not requeued, not
// re-run, and (having been compacted away) simply expire.
func TestRestartDropsTerminalJobs(t *testing.T) {
	mem := persist.NewMemFS()
	cfg := Config{SnapshotDir: persistTestDir, PersistFS: mem, PersistClock: persist.NewManualClock(time.Unix(0, 0))}
	srvA, tsA := newTestServer(t, cfg)
	env := submitJob(t, tsA.URL, "run", quickRunRequest, "alice", 5)
	waitJobState(t, tsA.URL, env.ID, "done")
	second := submitJob(t, tsA.URL, "run", quickRunRequest, "alice", 5)
	waitJobState(t, tsA.URL, second.ID, "done")
	srvA.Close()

	srvB, tsB := newTestServer(t, Config{SnapshotDir: persistTestDir, PersistFS: mem,
		PersistClock: persist.NewManualClock(time.Unix(0, 0))})
	st := srvB.Stats().Persist
	if st.RecoveredQueued != 0 || st.RecoveredInterrupted != 0 || st.RecoveredDropped != 0 {
		t.Fatalf("terminal jobs resurrected: %+v", st)
	}
	if code, _ := get(t, tsB.URL+"/v1/jobs/"+env.ID); code != http.StatusNotFound {
		t.Fatalf("terminal job still present after restart: status %d", code)
	}
}

// TestRestartRetryBudgetExhausted: a job the journal shows interrupted
// MaxAttempts times is restored as failed — visible, terminal,
// immune to requeue — instead of crash-looping forever.
func TestRestartRetryBudgetExhausted(t *testing.T) {
	mem := persist.NewMemFS()
	j, err := persist.OpenJournal(mem, persistTestDir)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend := func(rec persist.JournalRecord) {
		t.Helper()
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(persist.JournalRecord{Op: persist.OpSubmit, ID: "j000001", Tenant: "alice",
		Priority: 5, Kind: "run", Request: []byte(quickRunRequest)})
	for attempt := 1; attempt <= 3; attempt++ {
		mustAppend(persist.JournalRecord{Op: persist.OpStart, ID: "j000001", Attempt: attempt})
	}
	// A second job whose journaled request no longer decodes.
	mustAppend(persist.JournalRecord{Op: persist.OpSubmit, ID: "j000002", Tenant: "bob",
		Priority: 5, Kind: "run", Request: []byte(`{"bogus":true}`)})
	j.Close()

	srv, ts := newTestServer(t, Config{SnapshotDir: persistTestDir, PersistFS: mem,
		PersistClock: persist.NewManualClock(time.Unix(0, 0)), RetryMaxAttempts: 3})
	if st := srv.Stats().Persist; st.RecoveredDropped != 2 || st.RecoveredInterrupted != 0 {
		t.Fatalf("recovery stats = %+v, want both jobs dropped to failed", st)
	}
	exhausted := getJob(t, ts.URL, "j000001")
	if exhausted.State != "failed" || exhausted.Error == nil || exhausted.Error.Code != "retry_exhausted" {
		t.Fatalf("exhausted job = %+v, want failed with retry_exhausted", exhausted)
	}
	undecodable := getJob(t, ts.URL, "j000002")
	if undecodable.State != "failed" || undecodable.Error == nil {
		t.Fatalf("undecodable job = %+v, want failed", undecodable)
	}
}

// TestRestartAbortLeavesNoGoroutines: tearing a persisting server down
// mid-backlog, by a simulated crash (Abort) or a graceful Close, leaves
// no goroutine behind and the in-flight gauge at zero. The backlog is
// the one the kill -9 smoke parks: an exact paper-scale sweep pinning
// the only worker and a run job queued behind it.
func TestRestartAbortLeavesNoGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Server)
	}{
		{"abort", (*Server).Abort},
		{"close", (*Server).Close},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := goroutineBaseline()

			srv := New(Config{
				JobWorkers:   1,
				SnapshotDir:  persistTestDir,
				PersistFS:    persist.NewMemFS(),
				PersistClock: persist.NewManualClock(time.Unix(0, 0)),
			})
			ts := httptest.NewServer(srv.Handler())
			syncRun(t, ts.URL, quickRunRequest)
			sweep := submitJob(t, ts.URL, "sweep", `{"app":"qsdpcm","scale":"paper","engine":"exhaustive"}`, "alice", 5)
			waitJobState(t, ts.URL, sweep.ID, "running")
			submitJob(t, ts.URL, "run", quickRunRequest, "bob", 5)

			tc.stop(srv)
			ts.Close()
			checkNoLeaks(t, srv, baseline)
		})
	}
}

// goroutineBaseline closes idle client connections and returns the
// goroutine count a later checkNoLeaks settles back to.
func goroutineBaseline() int {
	http.DefaultClient.CloseIdleConnections()
	return runtime.NumGoroutine()
}

// checkNoLeaks runs once srv and its HTTP server have shut down: the
// goroutine count must settle back to baseline and no compute slot may
// still be held.
func checkNoLeaks(t *testing.T, srv *Server, baseline int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(15 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still running after shutdown, baseline %d:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := srv.Stats().InFlight; n != 0 {
		t.Fatalf("%d compute slots still held after shutdown", n)
	}
}

// warmAndClose boots a server on mem, warms two programs, and closes
// it gracefully (which flushes the snapshot) — the setup of every
// damaged-snapshot chaos test. It returns the two reference responses.
func warmAndClose(t *testing.T, mem *persist.MemFS) (want1, want2 []byte) {
	t.Helper()
	srv := New(Config{SnapshotDir: persistTestDir, PersistFS: mem,
		PersistClock: persist.NewManualClock(time.Unix(0, 0))})
	ts := httptest.NewServer(srv.Handler())
	want1 = syncRun(t, ts.URL, quickRunRequest)
	want2 = syncRun(t, ts.URL, secondRunRequest)
	srv.Close() // graceful close flushes the snapshot
	ts.Close()
	if mem.Len(persist.SnapshotPath(persistTestDir)) <= 0 {
		t.Fatal("graceful close left no snapshot")
	}
	return want1, want2
}

// TestChaosTornSnapshot: a snapshot truncated mid-record (torn write,
// torn disk) rewarms its verified prefix and the server serves every
// request correctly.
func TestChaosTornSnapshot(t *testing.T) {
	baseline := goroutineBaseline()
	mem := persist.NewMemFS()
	want1, _ := warmAndClose(t, mem)
	path := persist.SnapshotPath(persistTestDir)
	if !mem.Truncate(path, mem.Len(path)-7) {
		t.Fatal("truncate failed")
	}
	srv, ts := newTestServer(t, Config{SnapshotDir: persistTestDir, PersistFS: mem,
		PersistClock: persist.NewManualClock(time.Unix(0, 0))})
	waitFor(t, "rewarm", func() bool { return srv.Stats().Persist.RewarmDone })
	st := srv.Stats().Persist
	if st.DecodeErrors != 1 {
		t.Fatalf("decode errors = %d, want 1", st.DecodeErrors)
	}
	if st.Rewarmed != 1 || st.RewarmFailed != 0 {
		t.Fatalf("rewarm stats = %+v, want exactly the verified prefix (1 record)", st)
	}
	if got := syncRun(t, ts.URL, quickRunRequest); !bytes.Equal(got, want1) {
		t.Error("response after torn-snapshot recovery differs")
	}
	srv.Close()
	ts.Close()
	checkNoLeaks(t, srv, baseline)
}

// TestChaosBitFlipSnapshot: a flipped byte in a snapshot record is
// detected by the checksum; the damaged record (and everything after
// it) is never rewarmed, and answers stay byte-identical.
func TestChaosBitFlipSnapshot(t *testing.T) {
	baseline := goroutineBaseline()
	mem := persist.NewMemFS()
	want1, want2 := warmAndClose(t, mem)
	path := persist.SnapshotPath(persistTestDir)
	if !mem.Corrupt(path, mem.Len(path)-10) { // inside the last record
		t.Fatal("corrupt failed")
	}
	srv, ts := newTestServer(t, Config{SnapshotDir: persistTestDir, PersistFS: mem,
		PersistClock: persist.NewManualClock(time.Unix(0, 0))})
	waitFor(t, "rewarm", func() bool { return srv.Stats().Persist.RewarmDone })
	st := srv.Stats().Persist
	if st.DecodeErrors != 1 || st.Rewarmed != 1 || st.RewarmFailed != 0 {
		t.Fatalf("stats after bit flip = %+v, want 1 decode error, 1 rewarmed", st)
	}
	// Both programs still answer correctly — one warm, one recompiled.
	if got := syncRun(t, ts.URL, quickRunRequest); !bytes.Equal(got, want1) {
		t.Error("response after bit-flip recovery differs")
	}
	if got := syncRun(t, ts.URL, secondRunRequest); !bytes.Equal(got, want2) {
		t.Error("response after bit-flip recovery differs")
	}
	srv.Close()
	ts.Close()
	checkNoLeaks(t, srv, baseline)
}

// TestChaosGarbageSnapshot: a snapshot replaced by garbage is a cold
// start, not a crash.
func TestChaosGarbageSnapshot(t *testing.T) {
	baseline := goroutineBaseline()
	mem := persist.NewMemFS()
	want1, _ := warmAndClose(t, mem)
	if err := mem.WriteFile(persist.SnapshotPath(persistTestDir), []byte("not a snapshot at all")); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{SnapshotDir: persistTestDir, PersistFS: mem,
		PersistClock: persist.NewManualClock(time.Unix(0, 0))})
	waitFor(t, "rewarm", func() bool { return srv.Stats().Persist.RewarmDone })
	st := srv.Stats().Persist
	if st.DecodeErrors != 1 || st.Rewarmed != 0 {
		t.Fatalf("stats after garbage snapshot = %+v, want a logged cold start", st)
	}
	if got := syncRun(t, ts.URL, quickRunRequest); !bytes.Equal(got, want1) {
		t.Error("cold-start response differs")
	}
	srv.Close()
	ts.Close()
	checkNoLeaks(t, srv, baseline)
}

// TestChaosSnapshotENOSPC: a full disk fails snapshot flushes (counted,
// logged, previous snapshot intact) and never touches serving; space
// coming back resumes flushing.
func TestChaosSnapshotENOSPC(t *testing.T) {
	baseline := goroutineBaseline()
	mem := persist.NewMemFS()
	fsys := persist.NewFaultFS(mem)
	clk := persist.NewManualClock(time.Unix(0, 0))
	srv, ts := newTestServer(t, Config{SnapshotDir: persistTestDir, SnapshotInterval: time.Second,
		PersistFS: fsys, PersistClock: clk})
	want := syncRun(t, ts.URL, quickRunRequest)

	fsys.SetByteBudget(0)
	clk.Advance(1100 * time.Millisecond)
	waitFor(t, "failed flush", func() bool { return srv.Stats().Persist.SnapshotErrors >= 1 })
	if srv.Stats().Persist.SnapshotsWritten != 0 {
		t.Fatal("a flush claimed success under ENOSPC")
	}
	// Serving is unaffected.
	if got := syncRun(t, ts.URL, quickRunRequest); !bytes.Equal(got, want) {
		t.Error("response under ENOSPC differs")
	}

	fsys.SetByteBudget(-1)
	clk.Advance(1100 * time.Millisecond)
	waitFor(t, "flush after space returns", func() bool { return srv.Stats().Persist.SnapshotsWritten >= 1 })
	records, err := persist.ReadSnapshot(mem, persistTestDir)
	if err != nil || len(records) != 1 {
		t.Fatalf("snapshot after recovery: %d records, err %v", len(records), err)
	}
	srv.Close()
	ts.Close()
	checkNoLeaks(t, srv, baseline)
}

// TestChaosJournalAppendFailure: a failing journal append degrades
// durability (counted, logged) but the submission is still accepted
// and the job still completes.
func TestChaosJournalAppendFailure(t *testing.T) {
	baseline := goroutineBaseline()
	mem := persist.NewMemFS()
	fsys := persist.NewFaultFS(mem)
	srv, ts := newTestServer(t, Config{SnapshotDir: persistTestDir, PersistFS: fsys,
		PersistClock: persist.NewManualClock(time.Unix(0, 0))})
	fsys.FailAppends(errors.New("injected journal fault"))
	env := submitJob(t, ts.URL, "run", quickRunRequest, "alice", 5)
	if srv.Stats().Persist.JournalErrors < 1 {
		t.Fatal("failed journal append not counted")
	}
	waitJobState(t, ts.URL, env.ID, "done")
	fsys.FailAppends(nil)
	// The journal keeps working once the fault clears.
	env = submitJob(t, ts.URL, "run", quickRunRequest, "alice", 5)
	waitJobState(t, ts.URL, env.ID, "done")
	srv.Close()
	ts.Close()
	checkNoLeaks(t, srv, baseline)
}

// TestChaosJournalUnopenable: a journal that cannot be opened at boot
// disables persistence — the server still starts and serves,
// memory-only, and says so in its stats.
func TestChaosJournalUnopenable(t *testing.T) {
	baseline := goroutineBaseline()
	fsys := persist.NewFaultFS(persist.NewMemFS())
	fsys.FailOpens(errors.New("injected open fault"))
	srv, ts := newTestServer(t, Config{SnapshotDir: persistTestDir, PersistFS: fsys,
		PersistClock: persist.NewManualClock(time.Unix(0, 0))})
	if srv.Stats().Persist.Enabled {
		t.Fatal("persistence claims enabled over an unopenable journal")
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("server with disabled persistence is not serving")
	}
	// Compute and async both work memory-only.
	syncRun(t, ts.URL, quickRunRequest)
	env := submitJob(t, ts.URL, "run", quickRunRequest, "alice", 5)
	waitJobState(t, ts.URL, env.ID, "done")
	srv.Close()
	ts.Close()
	checkNoLeaks(t, srv, baseline)
}

// TestChaosJournalUnreadable: a journal that cannot be read at boot
// disables persistence (the jobs it may hold cannot be recovered, so
// journaling on top of it would be wrong) — the server still starts
// and serves, memory-only, and counts the failed read.
func TestChaosJournalUnreadable(t *testing.T) {
	baseline := goroutineBaseline()
	fsys := persist.NewFaultFS(persist.NewMemFS())
	fsys.FailReads(errors.New("injected read fault"))
	srv, ts := newTestServer(t, Config{SnapshotDir: persistTestDir, PersistFS: fsys,
		PersistClock: persist.NewManualClock(time.Unix(0, 0))})
	st := srv.Stats().Persist
	if st.Enabled {
		t.Fatal("persistence claims enabled over an unreadable journal")
	}
	if st.DecodeErrors != 1 {
		t.Fatalf("decode errors = %d, want 1 (the failed journal read)", st.DecodeErrors)
	}
	// Compute and async both work memory-only.
	syncRun(t, ts.URL, quickRunRequest)
	env := submitJob(t, ts.URL, "run", quickRunRequest, "alice", 5)
	waitJobState(t, ts.URL, env.ID, "done")
	srv.Close()
	ts.Close()
	checkNoLeaks(t, srv, baseline)
}

// TestChaosWorkerPanicJournaled: a task panic is a journaled failure —
// a restart does not resurrect the job.
func TestChaosWorkerPanicJournaled(t *testing.T) {
	baseline := goroutineBaseline()
	mem := persist.NewMemFS()
	// Submitting a panicking request through HTTP is not possible (all
	// valid requests execute safely), so drive the journal the way the
	// observer would: submit + start + failed.
	j, err := persist.OpenJournal(mem, persistTestDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []persist.JournalRecord{
		{Op: persist.OpSubmit, ID: "j000001", Tenant: "a", Priority: 5, Kind: "run", Request: []byte(quickRunRequest)},
		{Op: persist.OpStart, ID: "j000001", Attempt: 1},
		{Op: persist.OpFailed, ID: "j000001"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	srv, ts := newTestServer(t, Config{SnapshotDir: persistTestDir, PersistFS: mem,
		PersistClock: persist.NewManualClock(time.Unix(0, 0))})
	st := srv.Stats().Persist
	if st.RecoveredQueued != 0 || st.RecoveredInterrupted != 0 || st.RecoveredDropped != 0 {
		t.Fatalf("failed job resurrected: %+v", st)
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/j000001"); code != http.StatusNotFound {
		t.Fatalf("journaled-failed job present after restart: status %d", code)
	}
	srv.Close()
	ts.Close()
	checkNoLeaks(t, srv, baseline)
}

// TestDynamicRetryAfterBacklog: shedding a full job backlog answers
// with a Retry-After derived from depth and drain rate, floored at 1.
func TestDynamicRetryAfterBacklog(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, JobBacklog: 2, MaxStates: 2_000_000_000})
	// Pin the worker, fill the backlog (the cleanup Close cancels the
	// blocker).
	startBlocker(t, ts.URL)
	submitJob(t, ts.URL, "run", quickRunRequest, "a", 5)
	submitJob(t, ts.URL, "run", quickRunRequest, "a", 5)
	body := fmt.Sprintf(`{"kind":"run","request":%s}`, quickRunRequest)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 60]", ra)
	}
}
