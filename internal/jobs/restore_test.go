package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// eventLog collects observer events under a lock.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) observe(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) ops() []EventOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]EventOp, len(l.events))
	for i, e := range l.events {
		out[i] = e.Op
	}
	return out
}

// TestObserverLifecycle: a job's full life reaches the observer in
// order — submit, start (with the attempt number), done — and the
// submit event is delivered before Submit returns.
func TestObserverLifecycle(t *testing.T) {
	log := &eventLog{}
	m := New(Config{Workers: 1, Observer: log.observe})
	t.Cleanup(m.Close)
	snap, err := m.Submit("alice", 5, taskFunc(func(context.Context, func(any)) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	// Synchronous delivery: the submission is observed by the time
	// Submit returns, whatever the workers are doing.
	if ops := log.ops(); len(ops) == 0 || ops[0] != EventSubmit {
		t.Fatalf("events at Submit return: %v, want submit first", ops)
	}
	waitState(t, m, snap.ID, Done)
	want := []EventOp{EventSubmit, EventStart, EventDone}
	ops := log.ops()
	if len(ops) != len(want) {
		t.Fatalf("events = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("events = %v, want %v", ops, want)
		}
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	start := log.events[1]
	if start.Job.ID != snap.ID || start.Job.Attempts != 1 {
		t.Fatalf("start event = %+v, want job %s attempt 1", start.Job, snap.ID)
	}
}

// TestObserverSilentPaths: restores, requeues and shutdown
// mass-cancellation emit no events — only client-visible transitions
// are history.
func TestObserverSilentPaths(t *testing.T) {
	log := &eventLog{}
	m := New(Config{Workers: 1, Observer: log.observe})
	release := make(chan struct{})
	started := make(chan string, 1)
	if _, err := m.Submit("blocker", 9, blockerTask(started, release, "b")); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Restore("j000777", "alice", 5, 1, taskFunc(func(context.Context, func(any)) error { return nil }), Interrupted, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore("j000778", "bob", 5, 0, nil, Failed, errors.New("retry budget exhausted")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("carol", 5, taskFunc(func(context.Context, func(any)) error { return nil })); err != nil {
		t.Fatal(err)
	}
	before := len(log.ops())
	m.Close() // cancels the blocker, the queued job and the interrupted job
	after := log.ops()
	if len(after) != before {
		t.Fatalf("Close emitted %d events: %v", len(after)-before, after[before:])
	}
	for _, op := range after {
		if op == EventCanceled {
			t.Fatalf("silent paths emitted a canceled event: %v", after)
		}
	}
}

// TestRestoreQueuedRunsAndKeepsIdentity: a restored queued job keeps
// its ID, tenant, priority and spent attempts, runs to completion, and
// new submissions never collide with restored IDs.
func TestRestoreQueuedRunsAndKeepsIdentity(t *testing.T) {
	m := New(Config{Workers: 1})
	t.Cleanup(m.Close)
	snap, err := m.Restore("j000042", "alice", 7, 2, taskFunc(func(context.Context, func(any)) error { return nil }), Queued, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "j000042" || snap.Tenant != "alice" || snap.Priority != 7 || snap.Attempts != 2 {
		t.Fatalf("restored snapshot = %+v", snap)
	}
	got := waitState(t, m, "j000042", Done)
	// The run bumped attempts past the restored count.
	if got.Attempts != 3 {
		t.Fatalf("attempts after restored run = %d, want 3", got.Attempts)
	}
	// The ID generator moved past the restored ID.
	fresh, err := m.Submit("bob", 5, taskFunc(func(context.Context, func(any)) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID <= "j000042" {
		t.Fatalf("fresh ID %s did not advance past restored j000042", fresh.ID)
	}
	// Duplicate restore is rejected.
	if _, err := m.Restore(fresh.ID, "x", 1, 0, taskFunc(func(context.Context, func(any)) error { return nil }), Queued, nil); err == nil {
		t.Fatal("duplicate restore accepted")
	}
}

// TestRestoreInterruptedRequeueCancel: an interrupted job is
// observable but does not run until Requeue; Cancel finishes it
// directly from Interrupted.
func TestRestoreInterruptedRequeueCancel(t *testing.T) {
	m := New(Config{Workers: 1})
	t.Cleanup(m.Close)
	ran := make(chan struct{}, 1)
	task := taskFunc(func(context.Context, func(any)) error { ran <- struct{}{}; return nil })
	snap, err := m.Restore("j000010", "alice", 5, 1, task, Interrupted, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Interrupted || snap.Position != -1 {
		t.Fatalf("restored snapshot = %+v, want interrupted off-queue", snap)
	}
	select {
	case <-ran:
		t.Fatal("interrupted job ran without Requeue")
	case <-time.After(50 * time.Millisecond):
	}
	if st := m.Stats(); st.Interrupted != 1 {
		t.Fatalf("stats.Interrupted = %d, want 1", st.Interrupted)
	}
	if _, ok := m.Requeue("j000010"); !ok {
		t.Fatal("requeue failed")
	}
	got := waitState(t, m, "j000010", Done)
	if got.Attempts != 2 {
		t.Fatalf("attempts after requeue run = %d, want 2", got.Attempts)
	}
	// Requeue of a non-interrupted job is refused.
	if _, ok := m.Requeue("j000010"); ok {
		t.Fatal("requeue of a done job accepted")
	}

	// Cancel path.
	if _, err := m.Restore("j000011", "bob", 5, 1, task, Interrupted, nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.Cancel("j000011"); !ok || got.State != Canceled {
		t.Fatalf("cancel interrupted: ok=%v state=%s", ok, got.State)
	}
	if _, ok := m.Requeue("j000011"); ok {
		t.Fatal("requeue of a canceled job accepted")
	}
}

// TestRestoreFailedTerminal: a job restored as failed is terminal,
// carries its error, and is immune to Requeue.
func TestRestoreFailedTerminal(t *testing.T) {
	m := New(Config{Workers: 1})
	t.Cleanup(m.Close)
	budget := errors.New("retry budget exhausted after crash")
	snap, err := m.Restore("j000020", "alice", 5, 0, nil, Failed, budget)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Failed || !errors.Is(snap.Err, budget) {
		t.Fatalf("restored failed snapshot = %+v", snap)
	}
	if _, ok := m.Requeue("j000020"); ok {
		t.Fatal("requeue of a restore-failed job accepted")
	}
	if st := m.Stats(); st.Failed != 1 {
		t.Fatalf("stats.Failed = %d, want 1", st.Failed)
	}
}

// TestJanitorIntervalClamp: the purge cadence is floored so a tiny
// ResultTTL cannot busy-loop the janitor, and capped at a minute.
func TestJanitorIntervalClamp(t *testing.T) {
	cases := []struct {
		ttl  time.Duration
		want time.Duration
	}{
		{30 * time.Millisecond, minJanitorInterval},
		{0, minJanitorInterval},
		{400 * time.Millisecond, minJanitorInterval},
		{2 * time.Second, 500 * time.Millisecond},
		{15 * time.Minute, time.Minute},
	}
	for _, c := range cases {
		if got := janitorInterval(c.ttl); got != c.want {
			t.Errorf("janitorInterval(%v) = %v, want %v", c.ttl, got, c.want)
		}
	}
}
