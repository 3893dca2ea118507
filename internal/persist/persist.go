// Package persist is the crash-safety layer of the MHLA service: a
// versioned, checksummed snapshot of the compiled-workspace cache key
// set plus an append-only journal of async job submissions and
// transitions, so a restarted server rewarms its cache and requeues
// its backlog instead of starting cold and empty.
//
// The design assumes the persistent medium itself misbehaves — the
// failure modes of deep memory hierarchies apply to disks too. Every
// record carries its own SHA-256 checksum, snapshot files are replaced
// by atomic rename (readers only ever see a complete old or a complete
// new file), journals are append-only so a crash tears at most the
// final record, and every decoder treats arbitrary corruption —
// truncation, bit flips, garbage — as data loss to report, never as a
// reason to panic or to trust a record whose checksum does not verify.
// All disk access goes through the FS seam and all time through the
// Clock seam, so the chaos suite can inject write errors, ENOSPC and
// torn files, and tests can drive retry backoff without sleeping.
package persist

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FS is the filesystem seam: the handful of operations the
// persistence layer needs, injectable so tests can run on an
// in-memory filesystem and the chaos suite can inject faults.
// Implementations must be safe for concurrent use.
type FS interface {
	// MkdirAll creates the directory (and parents) if missing.
	MkdirAll(path string) error
	// ReadFile returns the file's contents; a missing file reports an
	// error satisfying errors.Is(err, fs.ErrNotExist).
	ReadFile(path string) ([]byte, error)
	// WriteFile creates (or truncates) the file, writes data and syncs
	// it to stable storage before returning.
	WriteFile(path string, data []byte) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the file; missing files are not an error.
	Remove(path string) error
	// OpenAppend opens the file for appending, creating it if missing.
	OpenAppend(path string) (AppendFile, error)
}

// AppendFile is an open append-only file: the journal's handle.
type AppendFile interface {
	io.Writer
	// Sync flushes written data to stable storage.
	Sync() error
	Close() error
}

// OSFS is the production FS, backed by the os package.
type OSFS struct{}

func (OSFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OSFS) WriteFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSFS) Remove(path string) error {
	err := os.Remove(path)
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

func (OSFS) OpenAppend(path string) (AppendFile, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// IsNotExist reports whether the error means the file is simply
// absent — the distinction between a cold start (no artifacts yet,
// normal) and a corrupt one (artifacts present but unreadable,
// logged).
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// Clock is the time seam: one-shot timers and tickers, injectable so
// tests drive retry backoff and snapshot cadence without sleeping.
type Clock interface {
	// AfterFunc runs f on its own goroutine after d elapses.
	AfterFunc(d time.Duration, f func()) Timer
	// NewTicker delivers ticks on C at period d.
	NewTicker(d time.Duration) Ticker
}

// Timer is a stoppable pending AfterFunc call.
type Timer interface {
	// Stop cancels the call if it has not fired yet.
	Stop() bool
}

// Ticker is a stoppable tick source.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// RealClock is the production Clock, backed by the time package.
type RealClock struct{}

func (RealClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

func (RealClock) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

type realTicker struct{ t *time.Ticker }

func (t realTicker) C() <-chan time.Time { return t.t.C }

func (t realTicker) Stop() { t.t.Stop() }

// ManualClock is a test Clock advanced explicitly: timers fire (on the
// caller's goroutine) and tickers deliver one tick per due period when
// Advance crosses their deadlines.
type ManualClock struct {
	mu      sync.Mutex
	now     time.Time
	timers  []*manualTimer
	tickers []*manualTicker
}

// NewManualClock starts a manual clock at the given instant.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

func (c *ManualClock) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTimer{clock: c, deadline: c.now.Add(d), f: f}
	c.timers = append(c.timers, t)
	return t
}

func (c *ManualClock) NewTicker(d time.Duration) Ticker {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTicker{clock: c, period: d, next: c.now.Add(d), ch: make(chan time.Time, 1)}
	c.tickers = append(c.tickers, t)
	return t
}

// Advance moves the clock forward, firing every timer whose deadline
// is crossed (synchronously, in deadline order) and delivering due
// ticks.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	var due []*manualTimer
	kept := c.timers[:0]
	for _, t := range c.timers {
		if !t.stopped && !t.deadline.After(now) {
			due = append(due, t)
		} else {
			kept = append(kept, t)
		}
	}
	c.timers = kept
	for _, tk := range c.tickers {
		if tk.stopped {
			continue
		}
		for !tk.next.After(now) {
			select {
			case tk.ch <- tk.next:
			default:
			}
			tk.next = tk.next.Add(tk.period)
		}
	}
	c.mu.Unlock()
	for _, t := range due {
		t.f()
	}
}

type manualTimer struct {
	clock    *ManualClock
	deadline time.Time
	f        func()
	stopped  bool
}

func (t *manualTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	was := t.stopped
	t.stopped = true
	return !was
}

type manualTicker struct {
	clock   *ManualClock
	period  time.Duration
	next    time.Time
	ch      chan time.Time
	stopped bool
}

func (t *manualTicker) C() <-chan time.Time { return t.ch }

func (t *manualTicker) Stop() {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	t.stopped = true
}

// SnapshotPath and JournalPath name the persistence artifacts inside a
// snapshot directory.
func SnapshotPath(dir string) string { return filepath.Join(dir, "cache.snapshot") }

func snapshotTmpPath(dir string) string { return filepath.Join(dir, "cache.snapshot.tmp") }

func JournalPath(dir string) string { return filepath.Join(dir, "jobs.journal") }

func journalTmpPath(dir string) string { return filepath.Join(dir, "jobs.journal.tmp") }
