package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mhla/internal/apps"
	"mhla/internal/progen"
	"mhla/pkg/mhla"
)

// newTestServer starts an httptest server over a fresh Server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// LIFO: the job layer shuts down first, unblocking any event
	// streams ts.Close would otherwise wait on.
	t.Cleanup(srv.Close)
	return srv, ts
}

// get fetches a URL and returns status and response bytes.
func get(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, data
}

// decodeError asserts the body is the typed error envelope and
// returns its code.
func decodeError(t *testing.T, body []byte) string {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not the typed envelope: %v\n%s", err, body)
	}
	if eb.Error.Code == "" || eb.Error.Message == "" {
		t.Fatalf("typed error missing code or message: %s", body)
	}
	return eb.Error.Code
}

func TestHealthz(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status %d: %s", code, body)
	}
	var h healthJSON
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz status %q", h.Status)
	}
	if h.Requests < 1 {
		t.Fatalf("healthz requests_total %d, want >= 1", h.Requests)
	}
	if got := srv.Stats().Requests; got < 1 {
		t.Fatalf("Stats().Requests = %d, want >= 1", got)
	}
}

func TestAppsCatalog(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/apps")
	if code != http.StatusOK {
		t.Fatalf("apps status %d: %s", code, body)
	}
	var resp struct {
		Apps []appJSON `json:"apps"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want := apps.Names()
	if len(resp.Apps) != len(want) {
		t.Fatalf("catalog has %d apps, want %d", len(resp.Apps), len(want))
	}
	for i, a := range resp.Apps {
		if a.Name != want[i] {
			t.Errorf("app %d = %q, want %q", i, a.Name, want[i])
		}
		if a.L1Bytes <= 0 || a.Domain == "" || a.Description == "" {
			t.Errorf("app %q has incomplete catalog data: %+v", a.Name, a)
		}
	}
}

// TestRunMatchesFacade: an app-mode run response is byte-identical to
// the direct facade call.
func TestRunMatchesFacade(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	app, err := apps.ByName("durbin")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mhla.Run(context.Background(), app.Build(apps.Test), mhla.WithL1(512))
	if err != nil {
		t.Fatal(err)
	}
	want, err := mhla.ResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	code, body := postTB(t, ts.URL+"/v1/run", `{"app":"durbin","scale":"test","l1_bytes":512}`)
	if code != http.StatusOK {
		t.Fatalf("run status %d: %s", code, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("server response diverged from facade:\nserver: %s\nfacade: %s", body, want)
	}
}

// TestRunInlineProgramAndPlatform: an inline program + inline platform
// request matches the direct facade call.
func TestRunInlineProgramAndPlatform(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	app, err := apps.ByName("sobel")
	if err != nil {
		t.Fatal(err)
	}
	prog := app.Build(apps.Test)
	progJSON, err := mhla.EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	plat := mhla.TwoLevel(1024)
	platJSON, err := mhla.EncodePlatform(plat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mhla.Run(context.Background(), prog,
		mhla.WithPlatform(plat), mhla.WithEngine(mhla.BnB), mhla.WithObjective(mhla.Time))
	if err != nil {
		t.Fatal(err)
	}
	want, err := mhla.ResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	reqBody := fmt.Sprintf(`{"program":%s,"platform":%s,"engine":"bnb","objective":"time"}`,
		progJSON, platJSON)
	code, body := postTB(t, ts.URL+"/v1/run", reqBody)
	if code != http.StatusOK {
		t.Fatalf("run status %d: %s", code, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("server response diverged from facade:\nserver: %s\nfacade: %s", body, want)
	}
}

// TestSweepMatchesFacade: a sweep response equals Sweep.JSON of the
// direct facade sweep.
func TestSweepMatchesFacade(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	app, err := apps.ByName("durbin")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := mhla.SweepL1(context.Background(), app.Build(apps.Test), []int64{256, 512, 1024})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sw.JSON()
	if err != nil {
		t.Fatal(err)
	}
	code, body := postTB(t, ts.URL+"/v1/sweep",
		`{"app":"durbin","scale":"test","sizes":[256,512,1024],"workers":2}`)
	if code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", code, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("sweep response diverged from facade:\nserver: %s\nfacade: %s", body, want)
	}
}

// TestBatchMatchesFacade: every batch job's embedded result equals the
// direct facade run of the same grid point.
func TestBatchMatchesFacade(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := postTB(t, ts.URL+"/v1/batch",
		`{"apps":["durbin","sobel"],"scale":"test","l1_sizes":[512,1024],"objectives":["energy","time"],"workers":2}`)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s", code, body)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 8 { // 2 apps x 2 sizes x 2 objectives
		t.Fatalf("batch returned %d jobs, want 8", len(resp.Jobs))
	}

	// Reproduce the grid directly through the facade.
	var grid mhla.Grid
	for _, name := range []string{"durbin", "sobel"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		grid.Apps = append(grid.Apps, mhla.GridApp{Name: name, Program: app.Build(apps.Test)})
	}
	grid.L1Sizes = []int64{512, 1024}
	grid.Objectives = []mhla.Objective{mhla.Energy, mhla.Time}
	jobs := grid.Jobs()
	if len(jobs) != len(resp.Jobs) {
		t.Fatalf("grid expands to %d jobs, server returned %d", len(jobs), len(resp.Jobs))
	}
	for i, job := range jobs {
		got := resp.Jobs[i]
		if got.Label != job.Label {
			t.Fatalf("job %d label %q, want %q", i, got.Label, job.Label)
		}
		if got.Error != "" {
			t.Fatalf("job %q failed: %s", got.Label, got.Error)
		}
		res, err := mhla.Run(context.Background(), job.Program, job.Options...)
		if err != nil {
			t.Fatalf("job %q direct run: %v", job.Label, err)
		}
		want, err := mhla.ResultJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		// The batch envelope re-indents the embedded result; compare
		// compacted forms.
		var gotC, wantC bytes.Buffer
		if err := json.Compact(&gotC, got.Result); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&wantC, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotC.Bytes(), wantC.Bytes()) {
			t.Fatalf("job %q diverged from facade:\nserver: %s\nfacade: %s",
				got.Label, gotC.Bytes(), wantC.Bytes())
		}
	}
}

// batchAppList renders a JSON list of n repeated catalog app names
// (grid-size validation runs before name resolution).
func batchAppList(n int) string {
	names := make([]string, n)
	for i := range names {
		names[i] = `"me"`
	}
	return strings.Join(names, ",")
}

// TestRequestErrors locks the typed 4xx surface down.
func TestRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1 << 14})
	cases := []struct {
		name     string
		endpoint string
		body     string
		status   int
		code     string
	}{
		{"malformed json", "/v1/run", `{`, http.StatusBadRequest, "bad_request"},
		{"unknown field", "/v1/run", `{"app":"me","bogus":1}`, http.StatusBadRequest, "bad_request"},
		{"trailing data", "/v1/run", `{"app":"me"} {"app":"me"}`, http.StatusBadRequest, "bad_request"},
		{"no program", "/v1/run", `{}`, http.StatusBadRequest, "bad_request"},
		{"app and program", "/v1/run", `{"app":"me","program":{"name":"x"}}`, http.StatusBadRequest, "bad_request"},
		{"unknown app", "/v1/run", `{"app":"nosuch"}`, http.StatusNotFound, "unknown_app"},
		{"bad scale", "/v1/run", `{"app":"me","scale":"huge"}`, http.StatusBadRequest, "bad_request"},
		{"scale on inline program", "/v1/run", `{"program":{"name":"x"},"scale":"test"}`, http.StatusBadRequest, "bad_request"},
		{"invalid program", "/v1/run", `{"program":{"name":"x"}}`, http.StatusBadRequest, "invalid_program"},
		{"invalid platform", "/v1/run", `{"app":"me","platform":{"name":"p"}}`, http.StatusBadRequest, "invalid_platform"},
		{"platform and l1", "/v1/run", `{"app":"me","platform":{"name":"p"},"l1_bytes":512}`, http.StatusBadRequest, "bad_request"},
		{"negative l1", "/v1/run", `{"app":"me","l1_bytes":-4}`, http.StatusBadRequest, "invalid_option"},
		{"bad engine", "/v1/run", `{"app":"me","engine":"quantum"}`, http.StatusBadRequest, "invalid_option"},
		{"bad objective", "/v1/run", `{"app":"me","objective":"vibes"}`, http.StatusBadRequest, "invalid_option"},
		{"bad policy", "/v1/run", `{"app":"me","policy":"yolo"}`, http.StatusBadRequest, "invalid_option"},
		{"negative workers", "/v1/run", `{"app":"me","workers":-1}`, http.StatusBadRequest, "invalid_option"},
		{"huge workers", "/v1/run", `{"app":"me","workers":100000}`, http.StatusBadRequest, "invalid_option"},
		{"huge max_states", "/v1/run", `{"app":"me","max_states":999999999999}`, http.StatusBadRequest, "invalid_option"},
		{"negative sweep size", "/v1/sweep", `{"app":"me","sizes":[-256]}`, http.StatusBadRequest, "invalid_option"},
		{"duplicate sweep size", "/v1/sweep", `{"app":"me","sizes":[512,1024,512]}`, http.StatusBadRequest, "invalid_option"},
		{"too many sweep sizes", "/v1/sweep", fmt.Sprintf(`{"app":"me","sizes":[%s1]}`, strings.Repeat("1,", maxSweepSizes)), http.StatusBadRequest, "bad_request"},
		{"retired sweep_workers", "/v1/sweep", `{"app":"me","sweep_workers":4}`, http.StatusBadRequest, "bad_request"},
		{"huge sweep workers", "/v1/sweep", `{"app":"me","workers":65}`, http.StatusBadRequest, "invalid_option"},
		{"batch no apps", "/v1/batch", `{}`, http.StatusBadRequest, "bad_request"},
		{"batch unknown app", "/v1/batch", `{"apps":["nosuch"]}`, http.StatusNotFound, "unknown_app"},
		{"batch singular objective", "/v1/batch", `{"apps":["me"],"objective":"energy"}`, http.StatusBadRequest, "bad_request"},
		{"batch bad objective", "/v1/batch", `{"apps":["me"],"objectives":["vibes"]}`, http.StatusBadRequest, "invalid_option"},
		{"batch objective inflation", "/v1/batch", `{"apps":["me"],"objectives":["energy","time","edp","energy"]}`, http.StatusBadRequest, "bad_request"},
		{"batch grid inflation", "/v1/batch", fmt.Sprintf(`{"apps":[%s],"l1_sizes":[%s1],"objectives":["energy","time","edp"]}`, batchAppList(20), strings.Repeat("1,", 20)), http.StatusBadRequest, "bad_request"},
		{"huge batch workers", "/v1/batch", `{"apps":["me"],"workers":65}`, http.StatusBadRequest, "invalid_option"},
		{"batch negative size", "/v1/batch", `{"apps":["me"],"l1_sizes":[0]}`, http.StatusBadRequest, "invalid_option"},
		{"oversized body", "/v1/run", `{"program":{"name":"` + strings.Repeat("x", 1<<15) + `"}}`, http.StatusRequestEntityTooLarge, "too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postTB(t, ts.URL+tc.endpoint, tc.body)
			if code != tc.status {
				t.Fatalf("status %d, want %d (%s)", code, tc.status, body)
			}
			if got := decodeError(t, body); got != tc.code {
				t.Fatalf("error code %q, want %q (%s)", got, tc.code, body)
			}
		})
	}
}

// TestPlatformRejectedByModelIsInvalidOption: an L1 so large that its
// energy model overtakes the background layer fails platform
// validation inside the flow. That is the caller's option, so /v1/run
// and /v1/sweep answer a typed 400 invalid_option and the batch job
// carries the typed message, not the fixed internal one. /v1/simulate
// runs no assignment flow and still answers.
func TestPlatformRejectedByModelIsInvalidOption(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ endpoint, body string }{
		{"/v1/run", `{"app":"durbin","scale":"test","l1_bytes":2560000}`},
		{"/v1/sweep", `{"app":"durbin","scale":"test","sizes":[512,2560000]}`},
	} {
		code, body := postTB(t, ts.URL+tc.endpoint, tc.body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.endpoint, code, body)
		}
		if got := decodeError(t, body); got != "invalid_option" {
			t.Fatalf("%s: error code %q, want invalid_option (%s)", tc.endpoint, got, body)
		}
	}

	code, body := postTB(t, ts.URL+"/v1/batch", `{"apps":["durbin"],"scale":"test","l1_sizes":[2560000]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d, want 200 (%s)", code, body)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 1 || !strings.Contains(resp.Jobs[0].Error, "invalid option Platform") {
		t.Fatalf("batch jobs = %+v, want one job failing with the typed platform message", resp.Jobs)
	}

	if code, body := postTB(t, ts.URL+"/v1/simulate", `{"app":"durbin","scale":"test","l1_bytes":2560000}`); code != http.StatusOK {
		t.Fatalf("simulate: status %d, want 200 (%s)", code, body)
	}
}

// TestMethodAndPathErrors: wrong methods and unknown paths get typed
// errors too.
func TestMethodAndPathErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := get(t, ts.URL+"/v1/run")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run status %d, want 405", code)
	}
	if got := decodeError(t, body); got != "method_not_allowed" {
		t.Fatalf("error code %q", got)
	}
	code, body = postTB(t, ts.URL+"/healthz", `{}`)
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz status %d, want 405", code)
	}
	code, body = get(t, ts.URL+"/v2/nope")
	if code != http.StatusNotFound {
		t.Fatalf("GET /v2/nope status %d, want 404", code)
	}
	if got := decodeError(t, body); got != "not_found" {
		t.Fatalf("error code %q", got)
	}
}

// bigScenario generates the long-search instance shared by the
// timeout and cancellation tests: a ~2.6G-leaf decision space whose
// exhaustive single-worker search runs for several seconds — far
// beyond any deadline the tests use — while the engine's cancellation
// polling still aborts it within milliseconds.
func bigScenario(t testing.TB) *progen.Scenario {
	t.Helper()
	cfg := progen.Config{MaxArrays: 4, MaxBlocks: 3, MaxNests: 3, MaxAccesses: 4, MaxSpace: 4_000_000_000}
	sc := cfg.Generate(0)
	if sc.Space < 1_000_000_000 {
		t.Fatalf("big scenario shrank: space %d leaves", sc.Space)
	}
	return sc
}

// bigScenarioBody renders the /v1/run request that exhaustively
// searches the big scenario.
func bigScenarioBody(t testing.TB) string {
	t.Helper()
	sc := bigScenario(t)
	progJSON, err := mhla.EncodeProgram(sc.Program)
	if err != nil {
		t.Fatal(err)
	}
	platJSON, err := mhla.EncodePlatform(sc.Platform)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"program":%s,"platform":%s,"engine":"exhaustive","workers":1,"max_states":2000000000}`,
		progJSON, platJSON)
}

// TestIntakeLoadShedding: a saturated intake pool sheds new requests
// with a typed 429 carrying a Retry-After hint within the bounded wait
// instead of hanging them behind slow-body connections forever.
func TestIntakeLoadShedding(t *testing.T) {
	srv := New(Config{MaxInFlight: 1}) // intake pool = 4
	for i := 0; i < cap(srv.intake); i++ {
		srv.intake <- struct{}{}
	}
	start := time.Now()
	release, apiErr := srv.acquireIntake(context.Background())
	if release != nil || apiErr == nil {
		t.Fatal("acquireIntake succeeded on a full pool")
	}
	if apiErr.status != http.StatusTooManyRequests || apiErr.code != "overloaded" {
		t.Fatalf("got %d/%s, want 429/overloaded", apiErr.status, apiErr.code)
	}
	if apiErr.retryAfter <= 0 {
		t.Fatalf("shed-load error has no Retry-After hint: %+v", apiErr)
	}
	if waited := time.Since(start); waited > 10*intakeWaitMax {
		t.Fatalf("load shedding took %v, want ~%v", waited, intakeWaitMax)
	}
	// A freed slot is picked up again.
	<-srv.intake
	release, apiErr = srv.acquireIntake(context.Background())
	if apiErr != nil {
		t.Fatalf("acquireIntake failed with a free slot: %v", apiErr.msg)
	}
	release()
	release() // idempotent
}

// TestServerTimeout: a server-side request timeout surfaces as a typed
// 504 and never wedges the slot.
func TestServerTimeout(t *testing.T) {
	srv, ts := newTestServer(t, Config{RequestTimeout: 100 * time.Millisecond, MaxStates: 2_000_000_000})
	code, body := postTB(t, ts.URL+"/v1/run", bigScenarioBody(t))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", code, body)
	}
	if got := decodeError(t, body); got != "timeout" {
		t.Fatalf("error code %q, want timeout", got)
	}
	if got := srv.Stats().InFlight; got != 0 {
		t.Fatalf("in-flight slot leaked: %d", got)
	}
}
