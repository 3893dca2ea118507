// Command mhla-serve runs the MHLA flow as a long-lived HTTP JSON
// service over the compiled-workspace cache: POST /v1/run evaluates
// the four operating points of a program+platform, POST /v1/sweep
// runs the L1 trade-off sweep, POST /v1/batch fans an
// Explorer grid over catalog applications, POST /v1/simulate replays
// the trace-driven cache simulator, GET /v1/apps lists the catalog
// and GET /healthz reports liveness plus cache, in-flight and job
// statistics. Compute responses are byte-identical to direct pkg/mhla
// facade calls — the service is a transport, not a second
// implementation.
//
// The POST /v1/jobs family runs the same compute requests
// asynchronously: submit {"kind":"run","request":{...}} and get a job
// ID back immediately; a bounded worker pool drains a tenant-fair
// priority queue (tenants bucket by X-API-Key, or remote host without
// one). GET /v1/jobs/{id} polls the envelope, GET /v1/jobs/{id}/result
// fetches the stored bytes (identical to the synchronous response),
// GET /v1/jobs/{id}/events streams NDJSON envelopes and
// DELETE /v1/jobs/{id} cancels.
//
// Usage:
//
//	mhla-serve -addr :8080
//	mhla-serve -addr 127.0.0.1:8080 -cache 128 -inflight 16 -timeout 30s
//	mhla-serve -jobworkers 4 -backlog 512 -jobttl 30m
//	mhla-serve -snapshot-dir /var/lib/mhla -snapshot-interval 10s -retry-max 3
//
// With -snapshot-dir the server persists its compiled-workspace cache
// (each resident entry's digest and canonical program bytes, in
// checksummed, atomically-renamed snapshots) and an append-only
// journal of async job transitions: after a crash or kill -9 the next
// boot rewarms the cache in the background, requeues journaled jobs
// and retries interrupted ones with jittered backoff. Without it the
// server is memory-only.
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/run -d '{"app":"me","l1_bytes":2048}'
//	curl -s -X POST localhost:8080/v1/sweep -d '{"app":"qsdpcm","workers":4}'
//	curl -s -X POST localhost:8080/v1/jobs -d '{"kind":"run","request":{"app":"me"}}'
//	curl -s localhost:8080/v1/jobs/j000001/events
//
// SIGINT/SIGTERM drain in-flight requests and shut down gracefully.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mhla/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		cache      = flag.Int("cache", 64, "compiled-workspace cache entries")
		inflight   = flag.Int("inflight", 0, "max in-flight compute requests (0 = 4x GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 0, "per-request compute timeout (0 = none)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
		states     = flag.Int("maxstates", 0, "cap on a request's exact-search state budget (0 = 10M)")
		jobWorkers = flag.Int("jobworkers", 0, "async job workers (0 = 2)")
		backlog    = flag.Int("backlog", 0, "async job backlog before shedding with 429 (0 = 256)")
		jobTTL     = flag.Duration("jobttl", 0, "how long finished job results stay fetchable (0 = 15m)")
		snapDir    = flag.String("snapshot-dir", "", "directory for the cache snapshot and job journal (empty = memory-only)")
		snapEvery  = flag.Duration("snapshot-interval", 0, "snapshot flush cadence (0 = 10s)")
		retryMax   = flag.Int("retry-max", 0, "crash-retry attempts before an interrupted job fails (0 = 3)")
	)
	flag.Parse()

	srv := server.New(server.Config{
		CacheEntries:     *cache,
		MaxInFlight:      *inflight,
		RequestTimeout:   *timeout,
		MaxStates:        *states,
		JobWorkers:       *jobWorkers,
		JobBacklog:       *backlog,
		JobResultTTL:     *jobTTL,
		SnapshotDir:      *snapDir,
		SnapshotInterval: *snapEvery,
		RetryMaxAttempts: *retryMax,
	})
	if *snapDir != "" {
		ps := srv.Stats().Persist
		log.Printf("mhla-serve: persistence enabled=%v dir=%s: %d snapshot records, recovered %d queued / %d interrupted / %d failed jobs",
			ps.Enabled, *snapDir, ps.SnapshotRecords, ps.RecoveredQueued, ps.RecoveredInterrupted, ps.RecoveredDropped)
	}
	// Every request context derives from baseCtx, so cancelling it
	// aborts in-flight engine runs (the flows poll their contexts) —
	// the lever that keeps shutdown bounded even with -timeout 0.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Bound the header read only. A whole-request ReadTimeout would
		// fire mid-handler on long computes and cancel the request
		// context (net/http's background read treats the expiry as a
		// connection error), silently capping every search despite
		// -timeout 0. Slow-body clients are already contained without
		// it: the intake semaphore bounds concurrent decodes and the
		// compute slot is taken only after the body is fully read.
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("mhla-serve: listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("mhla-serve: %v, draining (budget %v)", sig, *drain)
		// Drain gracefully for the budget; if compute requests outlive
		// it, cancel the base context so the engines abort (within
		// milliseconds — they poll their contexts) and shutdown still
		// completes cleanly instead of failing the process.
		abort := time.AfterFunc(*drain, func() {
			log.Printf("mhla-serve: drain budget exceeded, aborting in-flight requests")
			baseCancel()
		})
		ctx, cancel := context.WithTimeout(context.Background(), *drain+10*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(ctx)
		abort.Stop()
		if err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		// The HTTP side is drained; now cancel the queued and running
		// jobs and wait for the workers to exit.
		srv.Close()
		stats := srv.Stats()
		log.Printf("mhla-serve: drained; served %d requests (%d async jobs), cache %d/%d hits/misses",
			stats.Requests, stats.Jobs.Submitted, stats.Cache.Hits, stats.Cache.Misses)
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mhla-serve:", err)
	os.Exit(1)
}
