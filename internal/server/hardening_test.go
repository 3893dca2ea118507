package server

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestAcquireDeadRequest: acquire must never grant a compute slot to a
// request whose context is already dead — select chooses uniformly
// when both the slot and ctx.Done() are ready, so without the post-win
// re-check roughly half these iterations would hand a dead request a
// slot.
func TestAcquireDeadRequest(t *testing.T) {
	srv := New(Config{MaxInFlight: 4})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		release, apiErr := srv.acquire(ctx)
		if release != nil || apiErr == nil {
			t.Fatalf("iteration %d: acquire granted a slot to a dead request", i)
		}
		if apiErr.status != statusClientClosed || apiErr.code != "canceled" {
			t.Fatalf("got %d/%s, want %d/canceled", apiErr.status, apiErr.code, statusClientClosed)
		}
	}
	if n := len(srv.sem); n != 0 {
		t.Fatalf("%d slots leaked to dead requests", n)
	}
	if got := srv.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight gauge %d after dead requests, want 0", got)
	}
}

// TestAcquireIntakeDeadRequest: same property for the intake pool —
// its fast path never consulted ctx at all, so without the up-front
// check every one of these would win a slot.
func TestAcquireIntakeDeadRequest(t *testing.T) {
	srv := New(Config{MaxInFlight: 1})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		release, apiErr := srv.acquireIntake(ctx)
		if release != nil || apiErr == nil {
			t.Fatalf("iteration %d: acquireIntake granted a slot to a dead request", i)
		}
		if apiErr.status != statusClientClosed || apiErr.code != "canceled" {
			t.Fatalf("got %d/%s, want %d/canceled", apiErr.status, apiErr.code, statusClientClosed)
		}
	}
	if n := len(srv.intake); n != 0 {
		t.Fatalf("%d intake slots leaked to dead requests", n)
	}
}

// TestAcquireDeadlineOverload: a slot wait that dies on a deadline is
// overload (503), not a client disconnect (499).
func TestAcquireDeadlineOverload(t *testing.T) {
	srv := New(Config{MaxInFlight: 1})
	defer srv.Close()
	srv.sem <- struct{}{} // occupy the only slot
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	release, apiErr := srv.acquire(ctx)
	if release != nil || apiErr == nil {
		t.Fatal("acquire succeeded on a full semaphore")
	}
	if apiErr.status != http.StatusServiceUnavailable || apiErr.code != "overloaded" {
		t.Fatalf("got %d/%s, want 503/overloaded", apiErr.status, apiErr.code)
	}
}

// TestReleaseIdempotent: a compute-slot release called twice must be a
// no-op the second time. Without the sync.Once the second call would
// block forever on the empty semaphore and corrupt the in-flight
// gauge.
func TestReleaseIdempotent(t *testing.T) {
	srv := New(Config{MaxInFlight: 2})
	defer srv.Close()
	release, apiErr := srv.acquire(context.Background())
	if apiErr != nil {
		t.Fatalf("acquire: %v", apiErr.msg)
	}
	release()
	done := make(chan struct{})
	go func() {
		release()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second release blocked on the empty semaphore")
	}
	if got := srv.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight gauge %d after double release, want 0", got)
	}
	if n := len(srv.sem); n != 0 {
		t.Fatalf("semaphore holds %d tokens after double release, want 0", n)
	}
	// Full capacity is still available.
	for i := 0; i < cap(srv.sem); i++ {
		r, apiErr := srv.acquire(context.Background())
		if apiErr != nil {
			t.Fatalf("slot %d unavailable after double release: %v", i, apiErr.msg)
		}
		defer r()
	}
}

// TestPanicRecovery: a panicking handler still produces the typed 500
// envelope and hits the endpoint error counter instead of unwinding
// into net/http (which would kill the connection with no response and
// no accounting).
func TestPanicRecovery(t *testing.T) {
	srv := New(Config{})
	srv.mux.HandleFunc("/v1/panic", srv.count("/v1/panic", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	code, body := get(t, ts.URL+"/v1/panic")
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", code, body)
	}
	if got := decodeError(t, body); got != "internal" {
		t.Fatalf("error code %q, want internal", got)
	}
	ep := srv.Stats().Endpoints["/v1/panic"]
	if ep.Requests != 1 || ep.Errors != 1 {
		t.Fatalf("endpoint counters %+v, want 1 request and 1 error", ep)
	}
	// A panic after the handler already wrote a status must not write a
	// second (conflicting) response, but still counts as an error.
	srv.mux.HandleFunc("/v1/latepanic", srv.count("/v1/latepanic", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "partial")
		panic("late kaboom")
	}))
	code, body = get(t, ts.URL+"/v1/latepanic")
	if code != http.StatusOK || string(body) != "partial" {
		t.Fatalf("late panic rewrote the response: %d %q", code, body)
	}
	if ep := srv.Stats().Endpoints["/v1/latepanic"]; ep.Errors != 1 {
		t.Fatalf("late panic not counted as an error: %+v", ep)
	}
}

// TestStatusWriterResponseController: the statusWriter wrapper must
// stay transparent to http.NewResponseController — Flush and write
// deadlines reach the underlying connection through Unwrap — and a
// streamed 200 counts as a success, not an error.
func TestStatusWriterResponseController(t *testing.T) {
	srv := New(Config{})
	proceed := make(chan struct{})
	var flushErr, deadlineErr error
	srv.mux.HandleFunc("/v1/stream", srv.count("/v1/stream", func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		deadlineErr = rc.SetWriteDeadline(time.Now().Add(10 * time.Second))
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "chunk1\n")
		flushErr = rc.Flush()
		// Hold the response open until the client has read the flushed
		// chunk — proof the bytes reached the wire before the handler
		// returned.
		<-proceed
		io.WriteString(w, "chunk2\n")
	}))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)

	resp, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading the flushed chunk: %v", err)
	}
	if line != "chunk1\n" {
		t.Fatalf("flushed chunk %q", line)
	}
	close(proceed)
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "chunk2\n" {
		t.Fatalf("rest of stream %q", rest)
	}
	if flushErr != nil {
		t.Errorf("Flush through statusWriter: %v", flushErr)
	}
	if deadlineErr != nil {
		t.Errorf("SetWriteDeadline through statusWriter: %v", deadlineErr)
	}
	ep := srv.Stats().Endpoints["/v1/stream"]
	if ep.Requests != 1 || ep.Errors != 0 {
		t.Fatalf("streamed 200 miscounted: %+v, want 1 request, 0 errors", ep)
	}
}

// TestOversizedBodyWithBlankTailIsTooLarge: a body over MaxBodyBytes
// is 413 too_large on every POST endpoint, also when everything past
// its first JSON object is whitespace. A streaming decoder stops after
// that object, and its trailing-data peek swallows the size-cap error,
// so such a body used to be served.
func TestOversizedBodyWithBlankTailIsTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 10})
	tail := strings.Repeat(" ", 4<<10)
	for _, tc := range []struct{ endpoint, body string }{
		{"/v1/run", `{"app":"durbin","scale":"test","l1_bytes":512}`},
		{"/v1/sweep", `{"app":"durbin","scale":"test","sizes":[256,512]}`},
		{"/v1/batch", `{"apps":["durbin"],"scale":"test","l1_sizes":[512]}`},
		{"/v1/simulate", `{"app":"durbin","scale":"test","l1_bytes":512}`},
		{"/v1/jobs", `{"kind":"run","request":{"app":"durbin","scale":"test","l1_bytes":512}}`},
	} {
		code, body := postTB(t, ts.URL+tc.endpoint, tc.body+tail)
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (%s)", tc.endpoint, code, body)
			continue
		}
		if got := decodeError(t, body); got != "too_large" {
			t.Errorf("%s: error code %q, want too_large", tc.endpoint, got)
		}
	}
}

// TestDeclaredLengthDoesNotBypassCap: readBody sizes its buffer from a
// Content-Length within the cap, but reads the body the request really
// carries: a body longer than it declares is still served whole, and
// one whose real length is over the cap is still 413 too_large.
func TestDeclaredLengthDoesNotBypassCap(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 1 << 10})
	defer srv.Close()
	handler := srv.Handler()
	run := `{"app":"durbin","scale":"test","l1_bytes":512}`
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"understated", run, http.StatusOK},
		{"understated over the cap", run + strings.Repeat(" ", 4<<10), http.StatusRequestEntityTooLarge},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(tc.body))
		req.ContentLength = 8
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.Bytes())
			continue
		}
		if tc.want != http.StatusOK {
			if got := decodeError(t, rec.Body.Bytes()); got != "too_large" {
				t.Errorf("%s: error code %q, want too_large", tc.name, got)
			}
		}
	}
}
