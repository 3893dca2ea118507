// Package jobs is the async execution layer of the MHLA service: a
// bounded worker pool fed by a bounded priority queue with per-tenant
// round-robin fairness.
//
// A submitted Task enters the queue and moves through the state
// machine
//
//	queued → running → done | failed | canceled
//
// Higher-priority jobs pop first; within a priority band tenants take
// turns (one job per tenant per round, FIFO within a tenant), so a
// tenant flooding the backlog cannot starve another tenant's
// occasional job. The backlog is bounded: Submit returns
// ErrBacklogFull when it is at capacity, and the caller sheds load
// (the HTTP layer answers 429 with Retry-After). Jobs can be canceled
// at any point before completion — a queued job leaves the queue
// immediately, a running job has its context canceled and is marked
// canceled without waiting for the task to unwind. Watchers observe a
// job through a coalescing notification channel (Watch) plus
// point-in-time snapshots (Get). Terminal jobs are retained for
// ResultTTL and then purged.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a job's position in the lifecycle state machine.
type State string

const (
	Queued   State = "queued"
	Running  State = "running"
	Done     State = "done"
	Failed   State = "failed"
	Canceled State = "canceled"
	// Interrupted marks a job recovered from a crash that caught it
	// mid-run: not queued, not running, waiting for a Requeue (the retry
	// backoff timer) or a Cancel. Non-terminal.
	Interrupted State = "interrupted"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// Task is one unit of submitted work. Run executes on a worker
// goroutine; publish streams intermediate progress values to watchers
// (cheap, coalescing — the latest value wins). Run must honor ctx:
// cancellation means the job was canceled (or the manager is closing)
// and the task should unwind promptly. A non-nil error marks the job
// failed; a panic is recovered and marks it failed too. Result data is
// the task's own business — implementations keep it in their own
// fields, and observers recover the Task from Snapshot.Task.
type Task interface {
	Run(ctx context.Context, publish func(progress any)) error
}

// ErrBacklogFull is returned by Submit when the queue is at capacity;
// callers should shed load and have clients retry later.
var ErrBacklogFull = errors.New("jobs: backlog full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("jobs: manager closed")

// EventOp labels a lifecycle transition reported to the Observer.
type EventOp string

const (
	EventSubmit   EventOp = "submit"
	EventStart    EventOp = "start"
	EventDone     EventOp = "done"
	EventFailed   EventOp = "failed"
	EventCanceled EventOp = "canceled"
)

// Event is one lifecycle transition: the operation plus the job's
// snapshot at that instant (a start event's Attempts is the attempt
// number just begun).
type Event struct {
	Op  EventOp
	Job Snapshot
}

// Config configures a Manager. The zero value is usable: 2 workers, a
// 256-job backlog, 15-minute result retention.
type Config struct {
	// Workers is the number of jobs executing concurrently (default 2).
	Workers int
	// Backlog bounds the queued (not yet running) jobs (default 256).
	Backlog int
	// ResultTTL bounds how long a terminal job (and thus its result)
	// stays observable (default 15 minutes).
	ResultTTL time.Duration
	// Observer, when non-nil, receives every client-visible lifecycle
	// transition (submit, start, done, failed, canceled) synchronously
	// while the manager lock is held — a Submit does not return until
	// the observer has seen (and, for a persistence layer, durably
	// recorded) the submission. The observer must be fast and must not
	// call back into the Manager. Restore calls and the mass-cancel of
	// Close emit no events: recovery replays history rather than making
	// it, and shutdown is not a job outcome — both would otherwise
	// poison the journal against the next restart.
	Observer func(Event)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Backlog <= 0 {
		c.Backlog = 256
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	return c
}

// Stats is a point-in-time snapshot of the manager counters.
type Stats struct {
	// Submitted counts jobs accepted into the queue.
	Submitted int64 `json:"submitted"`
	// Done, Failed and Canceled count terminal outcomes.
	Done     int64 `json:"done"`
	Failed   int64 `json:"failed"`
	Canceled int64 `json:"canceled"`
	// Shed counts submissions rejected by the backlog bound.
	Shed int64 `json:"shed"`
	// Queued, Running and Interrupted are gauges of the live population.
	Queued      int `json:"queued"`
	Running     int `json:"running"`
	Interrupted int `json:"interrupted"`
}

// Snapshot is a point-in-time view of one job.
type Snapshot struct {
	ID       string
	Tenant   string
	Priority int
	State    State
	// Position is the number of queued jobs that pop before this one
	// (0 = next); -1 once the job has left the queue.
	Position int
	// Progress is the latest value the task published (nil until the
	// first publish).
	Progress any
	// Err is the task's failure (Failed jobs only).
	Err error
	// Task is the submitted task, so callers can recover results the
	// task stored in its own fields.
	Task Task
	// Attempts counts executions begun (including interrupted ones
	// recovered from a previous process lifetime).
	Attempts int
	Created  time.Time
	Started  time.Time
	Finished time.Time
}

// job is the manager-internal record.
type job struct {
	id       string
	tenant   string
	priority int
	task     Task
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	progress any
	err      error
	attempts int
	cancel   context.CancelFunc
	watchers []chan struct{}
}

// Manager owns the queue, the worker pool and the job table. Create
// one with New; it is safe for concurrent use.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	queue   *fairQueue
	byID    map[string]*job
	seq     int64
	closed  bool
	running int

	submitted, done, failed, canceled, shed int64

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	janitorC   chan struct{}
}

// New builds a Manager and starts its workers.
func New(cfg Config) *Manager {
	m := &Manager{
		cfg:      cfg.withDefaults(),
		queue:    newFairQueue(),
		byID:     make(map[string]*job),
		janitorC: make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	m.wg.Add(1)
	go m.janitor()
	return m
}

// Submit queues a task. It returns the job's initial snapshot, or
// ErrBacklogFull / ErrClosed.
func (m *Manager) Submit(tenant string, priority int, task Task) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Snapshot{}, ErrClosed
	}
	if m.queue.len() >= m.cfg.Backlog {
		m.shed++
		return Snapshot{}, ErrBacklogFull
	}
	m.seq++
	j := &job{
		id:       fmt.Sprintf("j%06d", m.seq),
		tenant:   tenant,
		priority: priority,
		task:     task,
		state:    Queued,
		created:  time.Now(),
	}
	m.byID[j.id] = j
	m.queue.push(j)
	m.submitted++
	m.emitLocked(EventSubmit, j)
	m.cond.Signal()
	return m.snapshotLocked(j), nil
}

// Restore re-creates a recovered job under its original ID, tenant,
// priority and spent-attempt count, bypassing the backlog bound (the
// job was already accepted in a previous process lifetime). The state
// says where it lands:
//   - Queued: in the queue, to run like any submission;
//   - Interrupted: present and observable, but not queued — the caller
//     requeues it (Requeue) when its retry backoff expires, or
//     fails/cancels it;
//   - Failed: terminal with jerr (retry budget exhausted, or its
//     request no longer decodes), so clients polling the old ID get a
//     definitive answer instead of a 404; task may be nil.
//
// No observer event is emitted. Fails on an empty or duplicate ID, any
// other state, or a closed manager.
func (m *Manager) Restore(id, tenant string, priority, attempts int, task Task, st State, jerr error) (Snapshot, error) {
	if id == "" {
		return Snapshot{}, errors.New("jobs: restore: empty id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Snapshot{}, ErrClosed
	}
	if _, dup := m.byID[id]; dup {
		return Snapshot{}, fmt.Errorf("jobs: restore: duplicate id %q", id)
	}
	// Keep the ID generator ahead of every restored ID so new
	// submissions never collide with recovered ones.
	var n int64
	if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > m.seq {
		m.seq = n
	}
	now := time.Now()
	j := &job{
		id:       id,
		tenant:   tenant,
		priority: priority,
		task:     task,
		state:    st,
		created:  now,
		attempts: attempts,
		err:      jerr,
	}
	m.byID[id] = j
	switch st {
	case Queued:
		m.queue.push(j)
		m.submitted++
		m.cond.Signal()
	case Interrupted:
		m.submitted++
	case Failed:
		m.submitted++
		m.failed++
		j.finished = now
	default:
		delete(m.byID, id)
		return Snapshot{}, fmt.Errorf("jobs: restore: unsupported state %q", st)
	}
	return m.snapshotLocked(j), nil
}

// Requeue moves an Interrupted job back into the queue (its retry
// backoff expired), bypassing the backlog bound. It emits no observer
// event — the job's submit record is already durable. ok is false for
// unknown IDs or jobs not currently interrupted.
func (m *Manager) Requeue(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, exists := m.byID[id]
	if !exists || j.state != Interrupted || m.closed {
		return Snapshot{}, false
	}
	j.state = Queued
	m.queue.push(j)
	m.notifyLocked(j)
	m.cond.Signal()
	return m.snapshotLocked(j), true
}

// Get returns the job's current snapshot; ok is false for unknown (or
// purged) IDs.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return Snapshot{}, false
	}
	return m.snapshotLocked(j), true
}

// Cancel cancels a job: a queued job leaves the queue immediately, a
// running job has its context canceled and is marked canceled without
// waiting for the task to unwind. Terminal jobs are left untouched (a
// repeat cancel is a no-op). ok is false for unknown IDs.
func (m *Manager) Cancel(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.byID[id]
	if !ok {
		return Snapshot{}, false
	}
	switch j.state {
	case Queued:
		m.queue.remove(j)
		m.finishLocked(j, Canceled, nil)
		m.notifyQueuedLocked()
	case Interrupted:
		m.finishLocked(j, Canceled, nil)
	case Running:
		// The worker observes the terminal state when the task returns
		// and leaves it alone; the job is canceled from the caller's
		// point of view right now.
		m.finishLocked(j, Canceled, nil)
		if j.cancel != nil {
			j.cancel()
		}
		m.running--
	}
	return m.snapshotLocked(j), true
}

// Watch subscribes to a job's lifecycle: the returned channel receives
// a (coalesced) signal whenever the job's observable snapshot may have
// changed — state transitions, progress publishes, queue movement.
// Callers re-read Get on each signal. stop unsubscribes; ok is false
// for unknown IDs.
func (m *Manager) Watch(id string) (notify <-chan struct{}, stop func(), ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, exists := m.byID[id]
	if !exists {
		return nil, nil, false
	}
	ch := make(chan struct{}, 1)
	j.watchers = append(j.watchers, ch)
	return ch, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, w := range j.watchers {
			if w == ch {
				j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
				break
			}
		}
	}, true
}

// Workers returns the size of the worker pool.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Stats snapshots the manager counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	interrupted := 0
	for _, j := range m.byID {
		if j.state == Interrupted {
			interrupted++
		}
	}
	return Stats{
		Submitted:   m.submitted,
		Done:        m.done,
		Failed:      m.failed,
		Canceled:    m.canceled,
		Shed:        m.shed,
		Queued:      m.queue.len(),
		Running:     m.running,
		Interrupted: interrupted,
	}
}

// Close stops the manager: queued jobs are canceled, running jobs have
// their contexts canceled, and Close blocks until the workers exit.
// Submit fails with ErrClosed afterwards.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	// Shutdown cancels silently (no observer events): these jobs are not
	// canceled as an outcome, they are waiting for the next process
	// lifetime — journaling a terminal record here would stop recovery
	// from requeuing them.
	for j := m.queue.pop(); j != nil; j = m.queue.pop() {
		m.finishQuietLocked(j, Canceled, nil)
	}
	for _, j := range m.byID {
		if j.state == Interrupted {
			m.finishQuietLocked(j, Canceled, nil)
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.baseCancel()
	close(m.janitorC)
	m.wg.Wait()
}

// worker is one pool goroutine: pop, run, record, repeat.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for !m.closed && m.queue.len() == 0 {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := m.queue.pop()
		ctx, cancel := context.WithCancel(m.baseCtx)
		j.cancel = cancel
		j.state = Running
		j.started = time.Now()
		j.attempts++
		m.running++
		m.emitLocked(EventStart, j)
		m.notifyLocked(j)
		// Every job behind the popped one moved up a slot.
		m.notifyQueuedLocked()
		m.mu.Unlock()

		err := runTask(ctx, j.task, func(v any) { m.publish(j, v) })
		cancel()

		m.mu.Lock()
		if !j.state.Terminal() {
			// Cancel (or Close) may have already finished the job; its
			// late return changes nothing then.
			m.running--
			finish := m.finishLocked
			if m.closed {
				// Shutdown unwound the task: not a job outcome. Journaling
				// it would stop recovery from retrying the job.
				finish = m.finishQuietLocked
			}
			if err == nil {
				finish(j, Done, nil)
			} else if errors.Is(err, context.Canceled) {
				// Canceled under the task without a Cancel call — the
				// manager shutting down mid-run.
				finish(j, Canceled, nil)
			} else {
				finish(j, Failed, err)
			}
		}
		m.mu.Unlock()
	}
}

// runTask executes the task, converting a panic into a failure so one
// bad job cannot take a worker (or the process) down.
func runTask(ctx context.Context, t Task, publish func(any)) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("jobs: task panicked: %v", rec)
		}
	}()
	return t.Run(ctx, publish)
}

// publish records the latest progress value and pokes the watchers.
func (m *Manager) publish(j *job, v any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.progress = v
	m.notifyLocked(j)
}

// finishLocked moves a job to a terminal state, bumps the matching
// counter and reports the transition to the observer. Callers hold
// m.mu and guarantee the job is not yet terminal.
func (m *Manager) finishLocked(j *job, st State, err error) {
	m.finishQuietLocked(j, st, err)
	switch st {
	case Done:
		m.emitLocked(EventDone, j)
	case Failed:
		m.emitLocked(EventFailed, j)
	case Canceled:
		m.emitLocked(EventCanceled, j)
	}
}

// finishQuietLocked is finishLocked without the observer event — for
// shutdown, where mass-cancellation must not be journaled as job
// outcomes.
func (m *Manager) finishQuietLocked(j *job, st State, err error) {
	j.state = st
	j.err = err
	j.finished = time.Now()
	switch st {
	case Done:
		m.done++
	case Failed:
		m.failed++
	case Canceled:
		m.canceled++
	}
	m.notifyLocked(j)
}

// emitLocked reports a lifecycle transition to the configured
// observer, synchronously under m.mu.
func (m *Manager) emitLocked(op EventOp, j *job) {
	if m.cfg.Observer != nil {
		m.cfg.Observer(Event{Op: op, Job: m.snapshotLocked(j)})
	}
}

// notifyLocked pokes a job's watchers (non-blocking: each channel
// carries at most one pending signal, so bursts coalesce).
func (m *Manager) notifyLocked(j *job) {
	for _, ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// notifyQueuedLocked pokes the watchers of every still-queued job —
// their positions shifted.
func (m *Manager) notifyQueuedLocked() {
	for _, j := range m.byID {
		if j.state == Queued && len(j.watchers) > 0 {
			m.notifyLocked(j)
		}
	}
}

func (m *Manager) snapshotLocked(j *job) Snapshot {
	pos := -1
	if j.state == Queued {
		pos = m.queue.position(j)
	}
	return Snapshot{
		ID:       j.id,
		Tenant:   j.tenant,
		Priority: j.priority,
		State:    j.state,
		Position: pos,
		Progress: j.progress,
		Err:      j.err,
		Task:     j.task,
		Attempts: j.attempts,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
}

// minJanitorInterval floors the purge cadence: a pathologically small
// ResultTTL (a misconfigured flag, a test) must not turn the janitor
// into a busy loop that contends the manager lock against real work.
const minJanitorInterval = 100 * time.Millisecond

// janitorInterval derives the purge cadence from the TTL: a quarter of
// it, clamped to [minJanitorInterval, 1min].
func janitorInterval(ttl time.Duration) time.Duration {
	interval := ttl / 4
	if interval < minJanitorInterval {
		interval = minJanitorInterval
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	return interval
}

// janitor purges terminal jobs past their ResultTTL.
func (m *Manager) janitor() {
	defer m.wg.Done()
	ticker := time.NewTicker(janitorInterval(m.cfg.ResultTTL))
	defer ticker.Stop()
	for {
		select {
		case <-m.janitorC:
			return
		case <-ticker.C:
			cutoff := time.Now().Add(-m.cfg.ResultTTL)
			m.mu.Lock()
			for id, j := range m.byID {
				if j.state.Terminal() && j.finished.Before(cutoff) {
					delete(m.byID, id)
				}
			}
			m.mu.Unlock()
		}
	}
}
