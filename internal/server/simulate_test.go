package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mhla/internal/apps"
	"mhla/pkg/mhla"
)

// simFacade computes the facade-side reference bytes for an app-mode
// simulate request.
func simFacade(t testing.TB, appName string, plat *mhla.Platform, cfg mhla.CacheConfig) []byte {
	t.Helper()
	app, err := apps.ByName(appName)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mhla.Simulate(context.Background(), app.Build(apps.Test), cfg, mhla.WithPlatform(plat))
	if err != nil {
		t.Fatal(err)
	}
	want, err := mhla.SimulateJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSimulateMatchesFacade: a default-hierarchy simulate response is
// byte-identical to the direct facade call.
func TestSimulateMatchesFacade(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	plat := mhla.TwoLevel(mhla.DefaultL1)
	want := simFacade(t, "durbin", plat, mhla.CacheConfigFor(plat, 0, 0))
	code, body := postTB(t, ts.URL+"/v1/simulate", `{"app":"durbin","scale":"test"}`)
	if code != http.StatusOK {
		t.Fatalf("simulate status %d: %s", code, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("server response diverged from facade:\nserver: %s\nfacade: %s", body, want)
	}
}

// TestSimulateExplicitLevels: explicit levels with a prefetcher, on an
// explicit L1 capacity, match the facade.
func TestSimulateExplicitLevels(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	plat := mhla.TwoLevel(2048)
	cfg := mhla.CacheConfig{Levels: []mhla.CacheLevel{{
		Sets: 16, Ways: 2, LineBytes: 32,
		Prefetcher: mhla.PrefetchStride, PrefetchEntries: 16, PrefetchDegree: 2, PrefetchLatency: 3,
	}}}
	want := simFacade(t, "sobel", plat, cfg)
	req := `{"app":"sobel","scale":"test","l1_bytes":2048,"levels":[
		{"sets":16,"ways":2,"line_bytes":32,"prefetcher":"stride",
		 "prefetch_entries":16,"prefetch_degree":2,"prefetch_latency":3}]}`
	code, body := postTB(t, ts.URL+"/v1/simulate", req)
	if code != http.StatusOK {
		t.Fatalf("simulate status %d: %s", code, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("server response diverged from facade:\nserver: %s\nfacade: %s", body, want)
	}
}

// TestSimulateMemoryOnlyAnchor: an explicitly empty levels list is the
// no-cache anchor, not the default hierarchy.
func TestSimulateMemoryOnlyAnchor(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	plat := mhla.TwoLevel(mhla.DefaultL1)
	want := simFacade(t, "durbin", plat, mhla.CacheConfig{})
	code, body := postTB(t, ts.URL+"/v1/simulate", `{"app":"durbin","scale":"test","levels":[]}`)
	if code != http.StatusOK {
		t.Fatalf("simulate status %d: %s", code, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("anchor response diverged from facade:\nserver: %s\nfacade: %s", body, want)
	}
	var resp struct {
		Levels []json.RawMessage `json:"levels"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Levels) != 0 {
		t.Fatalf("anchor response has %d cache levels, want 0", len(resp.Levels))
	}
}

// TestSimulateConcurrentClients: 8 concurrent clients alternating two
// request shapes all get the exact facade bytes — the byte-identity
// promise under concurrency (run with -race in CI).
func TestSimulateConcurrentClients(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	plat := mhla.TwoLevel(mhla.DefaultL1)
	wantDefault := simFacade(t, "durbin", plat, mhla.CacheConfigFor(plat, 0, 0))
	wantAnchor := simFacade(t, "durbin", plat, mhla.CacheConfig{})
	reqs := []struct {
		body string
		want []byte
	}{
		{`{"app":"durbin","scale":"test"}`, wantDefault},
		{`{"app":"durbin","scale":"test","levels":[]}`, wantAnchor},
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				req := reqs[(c+rep)%len(reqs)]
				code, body := postTB(t, ts.URL+"/v1/simulate", req.body)
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d: %s", c, code, body)
					return
				}
				if !bytes.Equal(body, req.want) {
					errs <- fmt.Errorf("client %d diverged from facade bytes", c)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSimulateErrors: every malformed request gets its typed 4xx.
func TestSimulateErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name     string
		body     string
		status   int
		code     string
		contains string
	}{
		{"no program", `{}`, http.StatusBadRequest, "bad_request", "app and program"},
		{"both platforms", `{"app":"durbin","scale":"test","l1_bytes":512,"platform":{"name":"x"}}`,
			http.StatusBadRequest, "bad_request", "at most one"},
		{"bad geometry", `{"app":"durbin","scale":"test","levels":[{"sets":3,"ways":1,"line_bytes":32}]}`,
			http.StatusBadRequest, "invalid_option", "power of two"},
		{"bad prefetcher", `{"app":"durbin","scale":"test","levels":[{"sets":4,"ways":1,"line_bytes":32,"prefetcher":"markov"}]}`,
			http.StatusBadRequest, "invalid_option", "unknown prefetcher"},
		{"too many levels", `{"app":"durbin","scale":"test","levels":[{},{},{},{},{}]}`,
			http.StatusBadRequest, "bad_request", "cache levels exceed"},
		{"oversized sets", fmt.Sprintf(`{"app":"durbin","scale":"test","levels":[{"sets":%d,"ways":1,"line_bytes":32}]}`, maxSimSets*2),
			http.StatusBadRequest, "invalid_option", "geometry exceeds"},
		{"oversized sets x ways", `{"app":"durbin","scale":"test","levels":[{"sets":1048576,"ways":64,"line_bytes":32}]}`,
			http.StatusBadRequest, "invalid_option", "sets x ways"},
		{"oversized max_accesses", fmt.Sprintf(`{"app":"durbin","scale":"test","max_accesses":%d}`, maxSimAccesses+1),
			http.StatusBadRequest, "invalid_option", "max_accesses"},
		{"trace over budget", `{"app":"durbin","scale":"test","max_accesses":5}`,
			http.StatusBadRequest, "too_many_accesses", "limit"},
		{"unknown app", `{"app":"nonesuch"}`, http.StatusNotFound, "unknown_app", "nonesuch"},
		{"unknown field", `{"app":"durbin","scale":"test","bogus":1}`,
			http.StatusBadRequest, "bad_request", "bogus"},
	}
	for _, tc := range cases {
		code, body := postTB(t, ts.URL+"/v1/simulate", tc.body)
		if code != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, code, tc.status, body)
			continue
		}
		if got := decodeError(t, body); got != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, got, tc.code)
		}
		if !strings.Contains(string(body), tc.contains) {
			t.Errorf("%s: message does not mention %q: %s", tc.name, tc.contains, body)
		}
	}
	// Wrong method.
	code, body := get(t, ts.URL+"/v1/simulate")
	if code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/simulate: status %d, want 405: %s", code, body)
	}
}

// TestSimulateSlotsBoundedAtIntake: a level whose sets and ways each
// pass their own limit but whose product would allocate more line slots
// than one level may is rejected by the intake mapping itself, before
// any cache state exists.
func TestSimulateSlotsBoundedAtIntake(t *testing.T) {
	levels := []simLevelJSON{{Sets: maxSimSets, Ways: maxSimWays, LineBytes: 32}}
	req := &simulateRequest{Levels: &levels}
	if _, apiErr := req.cacheConfig(nil); apiErr == nil || apiErr.code != "invalid_option" {
		t.Fatalf("sets %d x ways %d: error %+v, want invalid_option", maxSimSets, maxSimWays, apiErr)
	}
	levels[0].Ways = maxSimSlots / maxSimSets
	if _, apiErr := req.cacheConfig(nil); apiErr != nil {
		t.Fatalf("sets x ways at the bound: %+v", apiErr)
	}
}

// TestSimulateDerivedSlotsBoundedAtIntake: without levels the hierarchy
// is derived from the platform, and an l1_bytes whose derived level
// would allocate more line slots than one level may is rejected by the
// intake mapping too, up to the int64 range's end, without allocating
// the level or hanging in the derivation.
func TestSimulateDerivedSlotsBoundedAtIntake(t *testing.T) {
	req := &simulateRequest{}
	for _, l1 := range []int64{1 << 30, 1 << 40, 1 << 62, math.MaxInt64} {
		sel := platformSelection{L1Bytes: l1}
		plat, apiErr := sel.resolve()
		if apiErr != nil {
			t.Fatalf("l1_bytes %d: %+v", l1, apiErr)
		}
		if _, apiErr := req.cacheConfig(plat); apiErr == nil || apiErr.code != "invalid_option" {
			t.Errorf("l1_bytes %d: error %+v, want invalid_option", l1, apiErr)
		}
	}
	// 2^25 bytes derive 2^18 sets x 4 ways of 32 B: 2^20 slots, the bound.
	if _, apiErr := req.cacheConfig(mhla.TwoLevel(1 << 25)); apiErr != nil {
		t.Fatalf("derived sets x ways at the bound: %+v", apiErr)
	}
}

// TestRetryAfterHeader: HTTP-level load shedding answers 429 with a
// Retry-After header and the typed envelope.
func TestRetryAfterHeader(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1})
	for i := 0; i < cap(srv.intake); i++ {
		srv.intake <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(srv.intake); i++ {
			<-srv.intake
		}
	}()
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"app":"durbin","scale":"test"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	// The hint is dynamic (backlog depth / drain rate) but always an
	// integer within the [1, 60] clamp.
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 60 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 60]", resp.Header.Get("Retry-After"))
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Code != "overloaded" {
		t.Fatalf("code %q, want overloaded", eb.Error.Code)
	}
}

// TestHealthzEndpointCounters: the per-endpoint request/error counters
// show up in /healthz and classify 4xx responses as errors.
func TestHealthzEndpointCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// One good simulate, one bad one, one bad run.
	if code, body := postTB(t, ts.URL+"/v1/simulate", `{"app":"durbin","scale":"test"}`); code != http.StatusOK {
		t.Fatalf("simulate status %d: %s", code, body)
	}
	if code, _ := postTB(t, ts.URL+"/v1/simulate", `{}`); code != http.StatusBadRequest {
		t.Fatalf("bad simulate status %d, want 400", code)
	}
	if code, _ := postTB(t, ts.URL+"/v1/run", `{}`); code != http.StatusBadRequest {
		t.Fatalf("bad run status %d, want 400", code)
	}
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status %d: %s", code, body)
	}
	var h healthJSON
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	sim := h.Endpoints["/v1/simulate"]
	if sim.Requests != 2 || sim.Errors != 1 {
		t.Fatalf("/v1/simulate counters = %+v, want 2 requests / 1 error", sim)
	}
	run := h.Endpoints["/v1/run"]
	if run.Requests != 1 || run.Errors != 1 {
		t.Fatalf("/v1/run counters = %+v, want 1 request / 1 error", run)
	}
	hz := h.Endpoints["/healthz"]
	if hz.Requests < 1 || hz.Errors != 0 {
		t.Fatalf("/healthz counters = %+v, want >= 1 request / 0 errors", hz)
	}
}
