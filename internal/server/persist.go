package server

import (
	"context"
	"fmt"
	"log"
	"slices"
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
	// SnapshotRecords is the record count of the snapshot last loaded
	// or written.
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

// persister owns the server's crash-safety state: the open journal,
// the boot-time recovery bookkeeping and the background flush/rewarm
// machinery. It keeps no warm set of its own: the snapshot is the
// workspace cache's resident set, read at flush time, plus the loaded
// records rewarm has not reached yet. All disk access goes through the
// persist.FS seam and all time through the persist.Clock seam.
type persister struct {
	s      *Server
	fs     persist.FS
	clock  persist.Clock
	dir    string
	policy persist.RetryPolicy

	mu       sync.Mutex
	disabled bool
	journal  *persist.Journal
	// unreached holds the loaded snapshot records rewarm has not
	// finished yet, in snapshot order; flush writes them ahead of the
	// cache's entries so a close mid-rewarm keeps them. Empty once
	// rewarm is done.
	unreached []persist.SnapshotRecord
	// written is the digest list of the snapshot last loaded or
	// written; a periodic flush that would not change it is skipped.
	written []string

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

// loadSnapshot reads the cache-key snapshot into the records rewarm
// will compile. Corruption degrades to the verified prefix; the
// records are compiled later, in the background, by rewarm.
func (p *persister) loadSnapshot() {
	if p.disabled {
		return
	}
	records, err := persist.ReadSnapshot(p.fs, p.dir)
	if err != nil {
		p.stats.DecodeErrors++
		log.Printf("server: snapshot damaged, rewarming the verified prefix (%d records): %v", len(records), err)
	}
	seen := make(map[string]bool, len(records))
	for _, rec := range records {
		if seen[rec.Digest] {
			continue
		}
		seen[rec.Digest] = true
		p.unreached = append(p.unreached, rec)
		p.written = append(p.written, rec.Digest)
	}
	p.stats.SnapshotRecords = len(p.unreached)
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
			if _, err := p.s.jobs.Restore(rec.ID, rec.Tenant, rec.Priority, 0, nil, jobs.Failed, rec.failErr); err != nil {
				log.Printf("server: restore job %s as failed: %v", rec.ID, err)
				continue
			}
			p.stats.RecoveredDropped++
		case rec.Interrupted:
			if _, err := p.s.jobs.Restore(rec.ID, rec.Tenant, rec.Priority, rec.Attempts, rec.task, jobs.Interrupted, nil); err != nil {
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
			if _, err := p.s.jobs.Restore(rec.ID, rec.Tenant, rec.Priority, rec.Attempts, rec.task, jobs.Queued, nil); err != nil {
				log.Printf("server: restore job %s: %v", rec.ID, err)
				continue
			}
			p.stats.RecoveredQueued++
		}
	}
	p.recovered = nil
}

// start launches the background halves: the snapshot rewarm (recompile
// the loaded records without blocking readiness) and the periodic
// snapshot flush.
func (p *persister) start(interval time.Duration) {
	if p.disabled {
		close(p.rewarmDone)
		close(p.flushDone)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.rewarmCancel = cancel
	go p.rewarm(ctx, p.unreached)
	go p.flushLoop(interval)
}

// rewarm recompiles the snapshotted programs through the workspace
// cache, in snapshot order, in the background: the server is serving
// (cold) from the first instant and each rewarmed entry turns later
// requests for that program into hits. Every record re-verifies its
// digest end to end before its bytes are trusted. A record leaves
// unreached once its compile has finished: on success the cache holds
// it, on failure the next flush drops it.
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
		p.unreached = p.unreached[1:]
		if err != nil {
			p.stats.RewarmFailed++
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

// flushLoop writes the snapshot whenever the warm set changed, at the
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
			p.flush(false)
		}
	}
}

// flush snapshots the warm set, oldest first: the loaded records
// rewarm has not reached (minus any the cache already holds), then the
// cache's resident entries, capped at CacheEntries by dropping the
// oldest. Unless forced, it writes only when the digest list differs
// from the one last loaded or written. Cache entries encode their
// canonical program bytes here. A failed write (ENOSPC, injected
// faults) leaves the previous snapshot intact and is retried on the
// next tick.
func (p *persister) flush(force bool) {
	p.mu.Lock()
	if p.disabled {
		p.mu.Unlock()
		return
	}
	unreached, written := p.unreached, p.written
	p.mu.Unlock()
	resident := p.s.cache.resident()
	held := make(map[string]bool, len(resident))
	for _, e := range resident {
		held[e.digest] = true
	}
	// progs[i] is the program to encode for records[i]; nil for a
	// loaded record, which already carries its bytes.
	records := make([]persist.SnapshotRecord, 0, len(unreached)+len(resident))
	progs := make([]*mhla.Program, 0, cap(records))
	for _, rec := range unreached {
		if !held[rec.Digest] {
			records = append(records, rec)
			progs = append(progs, nil)
		}
	}
	for _, e := range resident {
		records = append(records, persist.SnapshotRecord{Digest: e.digest})
		progs = append(progs, e.ws.Program)
	}
	if over := len(records) - p.s.cfg.CacheEntries; over > 0 {
		records, progs = records[over:], progs[over:]
	}
	digests := make([]string, len(records))
	for i, rec := range records {
		digests[i] = rec.Digest
	}
	if !force && slices.Equal(digests, written) {
		return
	}
	out := records[:0]
	for i, rec := range records {
		if progs[i] != nil {
			data, err := mhla.EncodeProgram(progs[i])
			if err != nil {
				continue // left out of the snapshot; serving it is unaffected
			}
			rec.Program = data
		}
		out = append(out, rec)
	}
	err := persist.WriteSnapshot(p.fs, p.dir, out)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.stats.SnapshotErrors++
		log.Printf("server: snapshot write failed (will retry): %v", err)
		return
	}
	p.stats.SnapshotsWritten++
	p.stats.SnapshotRecords = len(out)
	p.written = digests
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
		p.flush(true) // a final write so the latest warm set survives
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
