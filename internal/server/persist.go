package server

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"mhla/internal/jobs"
	"mhla/internal/persist"
	"mhla/pkg/mhla"
)

// PersistStats is the persistence block of the server stats: what the
// crash-safety layer has recovered, rewarmed and (when the disk
// misbehaves) degraded.
type PersistStats struct {
	// Enabled reports a snapshot directory is configured and the
	// journal opened; false means the server runs memory-only (either
	// by configuration or because the journal could not be opened at
	// boot — DecodeErrors and the log tell which).
	Enabled bool `json:"enabled"`
	// SnapshotRecords is the size of the persisted cache key set.
	SnapshotRecords int `json:"snapshot_records"`
	// SnapshotsWritten counts successful snapshot flushes;
	// SnapshotErrors counts failed ones (the previous snapshot stays
	// intact — atomic rename).
	SnapshotsWritten int64 `json:"snapshots_written"`
	SnapshotErrors   int64 `json:"snapshot_errors"`
	// JournalErrors counts journal appends that failed; the affected
	// transition is lost to the next recovery but serving continues.
	JournalErrors int64 `json:"journal_errors"`
	// DecodeErrors counts corrupt snapshot/journal artifacts found at
	// boot (each degraded to the verified prefix, or to a cold start).
	DecodeErrors int64 `json:"decode_errors"`
	// Rewarmed and RewarmFailed count boot-time background recompiles
	// of snapshotted programs; RewarmDone reports the rewarm pass has
	// finished.
	Rewarmed     int64 `json:"rewarmed"`
	RewarmFailed int64 `json:"rewarm_failed"`
	RewarmDone   bool  `json:"rewarm_done"`
	// RecoveredQueued / RecoveredInterrupted count journal jobs brought
	// back at boot; RecoveredDropped counts jobs restored directly as
	// failed (retry budget exhausted, or their request no longer
	// decodes).
	RecoveredQueued      int `json:"recovered_queued"`
	RecoveredInterrupted int `json:"recovered_interrupted"`
	RecoveredDropped     int `json:"recovered_dropped"`
}

// persister owns the server's crash-safety state: the bounded,
// recency-ordered key set mirrored into the snapshot file, the open
// journal, the boot-time recovery bookkeeping and the background
// flush/rewarm machinery. All disk access goes through the persist.FS
// seam and all time through the persist.Clock seam.
type persister struct {
	s      *Server
	fs     persist.FS
	clock  persist.Clock
	dir    string
	policy persist.RetryPolicy

	mu       sync.Mutex
	disabled bool
	journal  *persist.Journal
	// progs mirrors the workspace cache key set: digest -> canonical
	// program bytes, with order tracking recency (oldest first) so the
	// snapshot evicts like the cache it mirrors.
	progs map[string][]byte
	order []string
	dirty bool

	stats PersistStats

	// recovered is the journal's live set, classified at boot and
	// consumed by restoreJobs once the job manager exists.
	recovered []recoveredJob

	rewarmCancel context.CancelFunc
	rewarmDone   chan struct{}
	flushStop    chan struct{}
	flushDone    chan struct{}
	timers       []persist.Timer
}

// recoveredJob is one journal job after boot classification.
type recoveredJob struct {
	persist.RecoveredJob
	task    *serverTask // nil when failErr is set
	failErr error
}

// newPersister builds the persister and performs the disk-side half of
// recovery: read + replay + compact the journal, read the snapshot,
// classify the live jobs. It returns nil when no snapshot directory is
// configured. A journal that cannot be opened disables persistence —
// the server still boots, memory-only, and says so.
func newPersister(s *Server, cfg Config) *persister {
	if cfg.SnapshotDir == "" {
		return nil
	}
	p := &persister{
		s:          s,
		fs:         cfg.PersistFS,
		clock:      cfg.PersistClock,
		dir:        cfg.SnapshotDir,
		policy:     persist.RetryPolicy{MaxAttempts: cfg.RetryMaxAttempts}.WithDefaults(),
		progs:      make(map[string][]byte),
		rewarmDone: make(chan struct{}),
		flushStop:  make(chan struct{}),
		flushDone:  make(chan struct{}),
	}
	if p.fs == nil {
		p.fs = persist.OSFS{}
	}
	if p.clock == nil {
		p.clock = persist.RealClock{}
	}
	if err := p.fs.MkdirAll(p.dir); err != nil {
		log.Printf("server: persistence disabled: snapshot dir: %v", err)
		p.disabled = true
		return p
	}
	p.recoverJournal()
	p.loadSnapshot()
	return p
}

// recoverJournal reads, replays, classifies and compacts the journal,
// then opens it for appending. Any corruption degrades to the verified
// prefix; an unopenable journal disables persistence entirely (serving
// must not depend on a broken disk).
func (p *persister) recoverJournal() {
	var records []persist.JournalRecord
	data, err := p.fs.ReadFile(persist.JournalPath(p.dir))
	switch {
	case err == nil:
		records, err = persist.DecodeJournal(data)
		if err != nil {
			p.stats.DecodeErrors++
			log.Printf("server: journal damaged, recovering the verified prefix: %v", err)
		}
	case persist.IsNotExist(err):
		// Cold start: no journal yet.
	default:
		p.stats.DecodeErrors++
		log.Printf("server: persistence disabled: read journal: %v", err)
		p.disabled = true
		return
	}
	var keep []persist.RecoveredJob
	for _, rj := range persist.Replay(records) {
		rec := recoveredJob{RecoveredJob: rj}
		if rj.Interrupted && rj.Attempts >= p.policy.MaxAttempts {
			rec.failErr = &apiError{status: 500, code: "retry_exhausted",
				msg: fmt.Sprintf("job interrupted by %d crashes; retry budget exhausted", rj.Attempts)}
		} else if wk, apiErr := p.s.buildWork(rj.Kind, rj.Request); apiErr != nil {
			// The journaled request no longer validates (a version skew,
			// or a corrupted-but-checksummed record): fail it visibly
			// rather than requeue a poison pill.
			rec.failErr = apiErr
		} else {
			rec.task = &serverTask{s: p.s, wk: wk, jobKind: rj.Kind, jobRaw: rj.Request}
			keep = append(keep, rj)
		}
		p.recovered = append(p.recovered, rec)
	}
	journal, err := persist.CompactJournal(p.fs, p.dir, keep)
	if err != nil {
		log.Printf("server: persistence disabled: compact journal: %v", err)
		p.disabled = true
		p.recovered = nil
		return
	}
	p.journal = journal
}

// loadSnapshot reads the cache-key snapshot and seeds the key set.
// Corruption degrades to the verified prefix; the records are compiled
// later, in the background, by rewarm.
func (p *persister) loadSnapshot() {
	if p.disabled {
		return
	}
	records, err := persist.ReadSnapshot(p.fs, p.dir)
	if err != nil {
		p.stats.DecodeErrors++
		log.Printf("server: snapshot damaged, rewarming the verified prefix (%d records): %v", len(records), err)
	}
	for _, rec := range records {
		if _, ok := p.progs[rec.Digest]; ok {
			continue
		}
		p.progs[rec.Digest] = rec.Program
		p.order = append(p.order, rec.Digest)
	}
	p.stats.SnapshotRecords = len(p.order)
}

// restoreJobs brings the classified journal jobs back into the job
// manager — queued jobs requeue in original submit order (the fair
// queue re-derives priority/tenant order), interrupted jobs wait out a
// jittered backoff before requeueing, exhausted or undecodable jobs
// land directly in failed so clients polling their IDs get a
// definitive answer. Restores emit no journal records; the compacted
// journal already carries these jobs.
func (p *persister) restoreJobs() {
	for _, rec := range p.recovered {
		switch {
		case rec.failErr != nil:
			if _, err := p.s.jobs.RestoreFailed(rec.ID, rec.Tenant, rec.Priority, rec.failErr); err != nil {
				log.Printf("server: restore job %s as failed: %v", rec.ID, err)
				continue
			}
			p.stats.RecoveredDropped++
		case rec.Interrupted:
			if _, err := p.s.jobs.RestoreInterrupted(rec.ID, rec.Tenant, rec.Priority, rec.Attempts, rec.task); err != nil {
				log.Printf("server: restore job %s: %v", rec.ID, err)
				continue
			}
			p.stats.RecoveredInterrupted++
			id := rec.ID
			p.mu.Lock()
			p.timers = append(p.timers, p.clock.AfterFunc(p.policy.Delay(rec.Attempts), func() {
				p.s.jobs.Requeue(id)
			}))
			p.mu.Unlock()
		default:
			if _, err := p.s.jobs.RestoreQueued(rec.ID, rec.Tenant, rec.Priority, rec.Attempts, rec.task); err != nil {
				log.Printf("server: restore job %s: %v", rec.ID, err)
				continue
			}
			p.stats.RecoveredQueued++
		}
	}
	p.recovered = nil
}

// start launches the background halves: the snapshot rewarm (recompile
// the persisted key set without blocking readiness) and the periodic
// snapshot flush.
func (p *persister) start(interval time.Duration) {
	if p.disabled {
		close(p.rewarmDone)
		close(p.flushDone)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.rewarmCancel = cancel
	p.mu.Lock()
	records := make([]persist.SnapshotRecord, 0, len(p.order))
	for _, digest := range p.order {
		records = append(records, persist.SnapshotRecord{Digest: digest, Program: p.progs[digest]})
	}
	p.mu.Unlock()
	go p.rewarm(ctx, records)
	go p.flushLoop(interval)
}

// rewarm recompiles the snapshotted programs through the workspace
// cache, in snapshot order, in the background: the server is serving
// (cold) from the first instant and each rewarmed entry turns later
// requests for that program into hits. Every record re-verifies its
// digest end to end before its bytes are trusted.
func (p *persister) rewarm(ctx context.Context, records []persist.SnapshotRecord) {
	defer close(p.rewarmDone)
	for _, rec := range records {
		if ctx.Err() != nil {
			return
		}
		prog, err := mhla.DecodeProgram(rec.Program)
		if err == nil {
			var digest string
			if digest, err = mhla.ProgramDigest(prog); err == nil && digest != rec.Digest {
				err = fmt.Errorf("decoded program digests to %.12s, snapshot says %.12s", digest, rec.Digest)
			}
		}
		if err == nil {
			_, err = p.s.cache.get(rec.Digest, func() (*mhla.Workspace, error) {
				return mhla.Compile(prog)
			})
		}
		p.mu.Lock()
		if err != nil {
			p.stats.RewarmFailed++
			delete(p.progs, rec.Digest)
			for i, d := range p.order {
				if d == rec.Digest {
					p.order = append(p.order[:i], p.order[i+1:]...)
					break
				}
			}
			p.dirty = true
		} else {
			p.stats.Rewarmed++
		}
		p.mu.Unlock()
		if err != nil {
			log.Printf("server: rewarm %.12s failed: %v", rec.Digest, err)
		}
	}
	p.mu.Lock()
	p.stats.RewarmDone = true
	p.mu.Unlock()
}

// touch records that the program (already compiled — only valid
// programs reach here) is warm, refreshing its recency in the
// persisted key set. New digests encode canonical bytes once; repeats
// only reorder.
func (p *persister) touch(digest string, prog *mhla.Program) {
	p.mu.Lock()
	if p.disabled {
		p.mu.Unlock()
		return
	}
	if _, ok := p.progs[digest]; ok {
		p.bumpLocked(digest)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	data, err := mhla.EncodeProgram(prog)
	if err != nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.disabled {
		return
	}
	if _, ok := p.progs[digest]; ok {
		p.bumpLocked(digest)
		return
	}
	p.progs[digest] = data
	p.order = append(p.order, digest)
	// The key set mirrors the cache bound: evict oldest-first beyond
	// capacity so the snapshot never outgrows what a restart could hold.
	for len(p.order) > p.s.cfg.CacheEntries {
		evict := p.order[0]
		p.order = p.order[1:]
		delete(p.progs, evict)
	}
	p.dirty = true
}

// bumpLocked moves a digest to the most-recent end of the order.
func (p *persister) bumpLocked(digest string) {
	for i, d := range p.order {
		if d == digest {
			if i != len(p.order)-1 {
				p.order = append(append(p.order[:i], p.order[i+1:]...), digest)
				p.dirty = true
			}
			return
		}
	}
}

// flushLoop writes the snapshot whenever the key set changed, at the
// configured cadence, until stopped.
func (p *persister) flushLoop(interval time.Duration) {
	defer close(p.flushDone)
	ticker := p.clock.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.flushStop:
			return
		case <-ticker.C():
			p.flush()
		}
	}
}

// flush writes the snapshot if the key set is dirty. A failed write
// (ENOSPC, injected faults) leaves the previous snapshot intact and
// the dirt in place for the next tick.
func (p *persister) flush() {
	p.mu.Lock()
	if p.disabled || !p.dirty {
		p.mu.Unlock()
		return
	}
	records := make([]persist.SnapshotRecord, 0, len(p.order))
	for _, digest := range p.order {
		records = append(records, persist.SnapshotRecord{Digest: digest, Program: p.progs[digest]})
	}
	p.mu.Unlock()
	err := persist.WriteSnapshot(p.fs, p.dir, records)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.stats.SnapshotErrors++
		log.Printf("server: snapshot write failed (will retry): %v", err)
		return
	}
	p.stats.SnapshotsWritten++
	p.stats.SnapshotRecords = len(records)
	p.dirty = false
}

// observe journals one job lifecycle transition. Called synchronously
// under the job manager lock, so a submission is durable before its
// 202 goes out. Append failures degrade durability (counted, logged),
// never serving.
func (p *persister) observe(e jobs.Event) {
	p.mu.Lock()
	if p.disabled || p.journal == nil {
		p.mu.Unlock()
		return
	}
	journal := p.journal
	p.mu.Unlock()
	rec := persist.JournalRecord{ID: e.Job.ID}
	switch e.Op {
	case jobs.EventSubmit:
		task, ok := e.Job.Task.(*serverTask)
		if !ok || len(task.jobRaw) == 0 {
			return // not recoverable; don't journal what replay can't rebuild
		}
		rec.Op = persist.OpSubmit
		rec.Tenant = e.Job.Tenant
		rec.Priority = e.Job.Priority
		rec.Kind = task.jobKind
		rec.Request = task.jobRaw
	case jobs.EventStart:
		rec.Op = persist.OpStart
		rec.Attempt = e.Job.Attempts
	case jobs.EventDone:
		rec.Op = persist.OpDone
	case jobs.EventFailed:
		rec.Op = persist.OpFailed
	case jobs.EventCanceled:
		rec.Op = persist.OpCanceled
	default:
		return
	}
	if err := journal.Append(rec); err != nil {
		p.mu.Lock()
		p.stats.JournalErrors++
		p.mu.Unlock()
		log.Printf("server: journal append failed (durability degraded): %v", err)
	}
}

// snapshot returns the stats block.
func (p *persister) snapshot() PersistStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Enabled = !p.disabled
	return st
}

// close shuts the persister down gracefully: final flush, journal
// closed, background loops stopped.
func (p *persister) close() {
	p.stop(true)
}

// abort simulates a crash: everything stops immediately, nothing is
// flushed, the journal is abandoned mid-state — exactly what SIGKILL
// leaves behind.
func (p *persister) abort() {
	p.stop(false)
}

func (p *persister) stop(flush bool) {
	p.mu.Lock()
	if p.disabled {
		p.mu.Unlock()
		return
	}
	if !flush {
		p.disabled = true
	}
	timers := p.timers
	p.timers = nil
	p.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
	if p.rewarmCancel != nil {
		p.rewarmCancel()
		<-p.rewarmDone
	}
	close(p.flushStop)
	<-p.flushDone
	if flush {
		p.mu.Lock()
		p.dirty = true // force a final write so the latest key set survives
		p.mu.Unlock()
		p.flush()
	}
	p.mu.Lock()
	journal := p.journal
	p.journal = nil
	p.disabled = true
	p.mu.Unlock()
	if journal != nil {
		journal.Close()
	}
}
