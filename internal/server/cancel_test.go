package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mhla/pkg/mhla"
)

// TestClientDisconnectAbortsSearch: cancelling the request mid-search
// aborts the engine promptly — observed through the server's progress
// snapshots: the state count stops growing — and frees the in-flight
// slot, leaking no goroutine.
func TestClientDisconnectAbortsSearch(t *testing.T) {
	abortMidSearch(t, "/v1/run", bigScenarioBody(t))
}

// TestClientDisconnectAbortsParallelSweep: the same for an exhaustive
// sweep whose two points search concurrently, one worker each.
func TestClientDisconnectAbortsParallelSweep(t *testing.T) {
	progJSON, err := mhla.EncodeProgram(bigScenario(t).Program)
	if err != nil {
		t.Fatal(err)
	}
	abortMidSearch(t, "/v1/sweep", fmt.Sprintf(
		`{"program":%s,"sizes":[4096,16384],"engine":"exhaustive","workers":2,"max_states":2000000000}`, progJSON))
}

// abortMidSearch posts a search that runs for seconds, disconnects
// once the engine reports progress, and checks that the search stops,
// the slot frees, the server keeps serving and, after shutdown, no
// goroutine outlives it.
func abortMidSearch(t *testing.T, endpoint, body string) {
	baseline := goroutineBaseline()
	var maxStates atomic.Int64
	srv, ts := newTestServer(t, Config{
		MaxStates: 2_000_000_000,
		Progress: func(p mhla.Progress) {
			if p.Phase == mhla.PhaseAssign && int64(p.States) > maxStates.Load() {
				maxStates.Store(int64(p.States))
			}
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+endpoint, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			done <- nil
			return
		}
		done <- err
	}()

	// Wait for the engine to actually be searching (first progress
	// snapshots), then pull the plug.
	deadline := time.After(30 * time.Second)
	for maxStates.Load() == 0 {
		select {
		case err := <-done:
			t.Fatalf("request finished before cancellation (err=%v) — scenario too small", err)
		case <-deadline:
			t.Fatal("engine never reported progress")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()

	// The client sees the cancellation...
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("request completed despite cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("request did not return after cancellation — engine not aborted")
	}

	// ...the in-flight slot frees promptly...
	slotFreed := time.After(5 * time.Second)
	for srv.Stats().InFlight != 0 {
		select {
		case <-slotFreed:
			t.Fatalf("in-flight slot not freed after cancellation: %d", srv.Stats().InFlight)
		case <-time.After(time.Millisecond):
		}
	}

	// ...and the search stops: the state count freezes. (A full
	// exhaustive search of this scenario would keep states growing for
	// seconds; two identical samples 150 ms apart mean the DFS is
	// dead.)
	settled := maxStates.Load()
	time.Sleep(150 * time.Millisecond)
	if now := maxStates.Load(); now != settled {
		t.Fatalf("state count still growing after cancellation: %d -> %d", settled, now)
	}

	// The server stays healthy for the next request.
	code, _ := postTB(t, ts.URL+"/v1/run", `{"app":"durbin","scale":"test","l1_bytes":512}`)
	if code != http.StatusOK {
		t.Fatalf("server unhealthy after cancelled request: status %d", code)
	}
	srv.Close()
	ts.Close()
	checkNoLeaks(t, srv, baseline)
}
