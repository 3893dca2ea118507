package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mhla/pkg/mhla"
)

// postJob POSTs a JSON body with an optional API key (the tenant
// selector) and returns status and response bytes.
func postJob(t testing.TB, url, body, apiKey string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("POST %s: %v", url, err)
		return 0, nil
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Errorf("POST %s: read body: %v", url, err)
		return 0, nil
	}
	return resp.StatusCode, buf.Bytes()
}

// submitJob submits one async job and returns its envelope. The
// request must be accepted (202).
func submitJob(t testing.TB, baseURL, kind, request, apiKey string, priority int) jobJSON {
	t.Helper()
	body := fmt.Sprintf(`{"kind":%q,"priority":%d,"request":%s}`, kind, priority, request)
	code, respBody := postJob(t, baseURL+"/v1/jobs", body, apiKey)
	if code != http.StatusAccepted {
		t.Fatalf("submit %s job: status %d, want 202: %s", kind, code, respBody)
	}
	var env jobJSON
	if err := json.Unmarshal(respBody, &env); err != nil {
		t.Fatalf("submit %s job: bad envelope: %v\n%s", kind, err, respBody)
	}
	if env.ID == "" || env.Kind != kind || env.State != "queued" {
		t.Fatalf("submit %s job: unexpected envelope %+v", kind, env)
	}
	return env
}

// getJob fetches one job envelope (which must exist).
func getJob(t testing.TB, baseURL, id string) jobJSON {
	t.Helper()
	code, body := get(t, baseURL+"/v1/jobs/"+id)
	if code != http.StatusOK {
		t.Fatalf("GET job %s: status %d: %s", id, code, body)
	}
	var env jobJSON
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("GET job %s: bad envelope: %v\n%s", id, err, body)
	}
	return env
}

// waitJobState polls a job until it reaches want (fatal on a different
// terminal state or timeout).
func waitJobState(t testing.TB, baseURL, id, want string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		env := getJob(t, baseURL, id)
		if env.State == want {
			return env
		}
		if terminal(env.State) {
			t.Fatalf("job %s reached %q, want %q (error: %+v)", id, env.State, want, env.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q waiting for %q", id, env.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// asyncDiffScenarios is the progen seed count of the async suite — a
// prefix of the same reference set the sync differential uses.
const asyncDiffScenarios = 24

// TestJobsDifferential: for every scenario, the stored result of an
// async run/sweep job is byte-identical to the synchronous endpoint's
// response (itself locked byte-identical to the direct facade call by
// TestServerDifferential) — submitted by 8 concurrent clients under
// distinct tenants.
func TestJobsDifferential(t *testing.T) {
	cases := buildDiffCasesN(t, asyncDiffScenarios)
	baseline := goroutineBaseline()
	srv, ts := newTestServer(t, Config{CacheEntries: asyncDiffScenarios + 8, JobWorkers: 4})

	const submitters = 8
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			apiKey := fmt.Sprintf("tenant-%d", g)
			for i := g; i < len(cases); i += submitters {
				c := cases[i]
				runJob := submitJob(t, ts.URL, "run", c.runBody, apiKey, 5)
				sweepJob := submitJob(t, ts.URL, "sweep", c.sweepBody, apiKey, 5)
				for _, j := range []struct {
					id   string
					want []byte
					kind string
				}{
					{runJob.ID, c.runWant, "run"},
					{sweepJob.ID, c.sweepWant, "sweep"},
				} {
					waitJobState(t, ts.URL, j.id, "done")
					code, body := get(t, ts.URL+"/v1/jobs/"+j.id+"/result")
					if code != http.StatusOK {
						t.Errorf("seed %d %s result: status %d: %s", c.seed, j.kind, code, body)
						continue
					}
					if !bytes.Equal(body, j.want) {
						t.Errorf("seed %d: async %s result diverged from sync response\nasync: %s\nsync: %s",
							c.seed, j.kind, body, j.want)
					}
				}
			}
		}()
	}
	wg.Wait()

	st := srv.Stats().Jobs
	if want := int64(2 * asyncDiffScenarios); st.Done != want {
		t.Errorf("jobs done = %d, want %d", st.Done, want)
	}
	if st.Failed != 0 || st.Canceled != 0 || st.Shed != 0 {
		t.Errorf("unexpected job outcomes: %+v", st)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Errorf("job gauges did not drain: %+v", st)
	}
	srv.Close()
	ts.Close()
	checkNoLeaks(t, srv, baseline)
}

// quickRunRequest is a fast catalog-app run, the filler job of the
// queue tests.
const quickRunRequest = `{"app":"durbin","scale":"test","l1_bytes":512}`

// blockerBody renders a job submission whose run pins a worker for
// seconds (but cancels within milliseconds).
func blockerBody(t testing.TB) string {
	t.Helper()
	return fmt.Sprintf(`{"kind":"run","request":%s}`, bigScenarioBody(t))
}

// startBlocker submits the blocker and waits until it occupies the
// single worker.
func startBlocker(t testing.TB, baseURL string) jobJSON {
	t.Helper()
	code, body := postJob(t, baseURL+"/v1/jobs", blockerBody(t), "blocker-tenant")
	if code != http.StatusAccepted {
		t.Fatalf("submit blocker: status %d: %s", code, body)
	}
	var env jobJSON
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	return waitJobState(t, baseURL, env.ID, "running")
}

// TestJobQueueOrdering: with the single worker pinned, queued jobs pop
// by priority band first and round-robin across tenants within a band
// — a tenant flooding the queue cannot starve another tenant's
// occasional job — and canceling a queued job promotes the jobs behind
// it.
func TestJobQueueOrdering(t *testing.T) {
	baseline := goroutineBaseline()
	srv, ts := newTestServer(t, Config{JobWorkers: 1, MaxStates: 2_000_000_000})
	blocker := startBlocker(t, ts.URL)

	submit := func(apiKey string, priority int) jobJSON {
		return submitJob(t, ts.URL, "run", quickRunRequest, apiKey, priority)
	}
	a1 := submit("alice", 5)
	a2 := submit("alice", 5)
	a3 := submit("alice", 5)
	b1 := submit("bob", 5)

	pos := func(env jobJSON) int {
		t.Helper()
		env = getJob(t, ts.URL, env.ID)
		if env.State != "queued" || env.Position == nil {
			t.Fatalf("job %s not queued with a position: %+v", env.ID, env)
		}
		return *env.Position
	}
	// Round-robin within the band: bob's single job pops right after
	// alice's first, ahead of her backlog.
	if got := [4]int{pos(a1), pos(b1), pos(a2), pos(a3)}; got != [4]int{0, 1, 2, 3} {
		t.Fatalf("fair queue positions [a1 b1 a2 a3] = %v, want [0 1 2 3]", got)
	}
	if a1.Tenant == b1.Tenant {
		t.Fatalf("distinct API keys mapped to one tenant %q", a1.Tenant)
	}

	// A higher band preempts the whole default band.
	hi := submit("alice", 9)
	if got := pos(hi); got != 0 {
		t.Fatalf("priority-9 job at position %d, want 0", got)
	}
	if got := pos(b1); got != 2 {
		t.Fatalf("b1 at position %d behind the priority job, want 2", got)
	}

	// Canceling a queued job frees its slot and promotes the backlog.
	code, body := deleteJob(t, ts.URL, a2.ID)
	if code != http.StatusOK {
		t.Fatalf("cancel queued a2: status %d: %s", code, body)
	}
	var canceled jobJSON
	if err := json.Unmarshal(body, &canceled); err != nil {
		t.Fatal(err)
	}
	if canceled.State != "canceled" {
		t.Fatalf("canceled queued job state %q", canceled.State)
	}
	if code, body := get(t, ts.URL+"/v1/jobs/"+a2.ID+"/result"); code != http.StatusGone {
		t.Fatalf("canceled job result: status %d, want 410: %s", code, body)
	}
	if got := pos(a3); got != 3 {
		t.Fatalf("a3 at position %d after a2's cancellation, want 3", got)
	}

	// Canceling the running blocker frees the worker promptly; the
	// whole backlog then drains in priority+fairness order.
	start := time.Now()
	code, body = deleteJob(t, ts.URL, blocker.ID)
	if code != http.StatusOK {
		t.Fatalf("cancel running blocker: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &canceled); err != nil {
		t.Fatal(err)
	}
	if canceled.State != "canceled" {
		t.Fatalf("canceled running job state %q", canceled.State)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("canceling the running job took %v", waited)
	}

	order := []jobJSON{hi, a1, b1, a3}
	for _, env := range order {
		waitJobState(t, ts.URL, env.ID, "done")
	}
	// Started timestamps replay the expected pop order.
	for i := 1; i < len(order); i++ {
		prev, cur := getJob(t, ts.URL, order[i-1].ID), getJob(t, ts.URL, order[i].ID)
		if prev.Started == nil || cur.Started == nil || cur.Started.Before(*prev.Started) {
			t.Fatalf("drain order violated: %s started %v, %s started %v",
				order[i-1].ID, prev.Started, order[i].ID, cur.Started)
		}
	}
	srv.Close()
	ts.Close()
	checkNoLeaks(t, srv, baseline)
}

// deleteJob issues DELETE /v1/jobs/{id}.
func deleteJob(t testing.TB, baseURL, id string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, baseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE job %s: %v", id, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestJobBacklogShed: a full backlog sheds new submissions with a
// typed 429 carrying Retry-After, and the shed counter records them.
func TestJobBacklogShed(t *testing.T) {
	srv, ts := newTestServer(t, Config{JobWorkers: 1, JobBacklog: 2, MaxStates: 2_000_000_000})
	startBlocker(t, ts.URL)
	submitJob(t, ts.URL, "run", quickRunRequest, "alice", 5)
	submitJob(t, ts.URL, "run", quickRunRequest, "alice", 5)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		strings.NewReader(fmt.Sprintf(`{"kind":"run","request":%s}`, quickRunRequest)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: status %d, want 429: %s", resp.StatusCode, buf.Bytes())
	}
	if got := decodeError(t, buf.Bytes()); got != "backlog_full" {
		t.Fatalf("error code %q, want backlog_full", got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response has no Retry-After header")
	}
	if got := srv.Stats().Jobs.Shed; got != 1 {
		t.Fatalf("shed counter %d, want 1", got)
	}
}

// TestJobSubmitValidation locks the typed 4xx surface of the job
// endpoints down, including the nested request objects.
func TestJobSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"unknown kind", `{"kind":"explode","request":{}}`, http.StatusBadRequest, "bad_request"},
		{"missing kind", `{"request":{"app":"me"}}`, http.StatusBadRequest, "bad_request"},
		{"missing request", `{"kind":"run"}`, http.StatusBadRequest, "bad_request"},
		{"negative priority", `{"kind":"run","priority":-1,"request":{"app":"me"}}`, http.StatusBadRequest, "invalid_option"},
		{"huge priority", `{"kind":"run","priority":10,"request":{"app":"me"}}`, http.StatusBadRequest, "invalid_option"},
		{"top-level unknown field", `{"kind":"run","bogus":1,"request":{"app":"me"}}`, http.StatusBadRequest, "bad_request"},
		{"nested unknown field", `{"kind":"run","request":{"app":"me","bogus":1}}`, http.StatusBadRequest, "bad_request"},
		{"nested unknown app", `{"kind":"run","request":{"app":"nosuch"}}`, http.StatusNotFound, "unknown_app"},
		{"nested bad engine", `{"kind":"run","request":{"app":"me","engine":"quantum"}}`, http.StatusBadRequest, "invalid_option"},
		{"nested sweep size", `{"kind":"sweep","request":{"app":"me","sizes":[-1]}}`, http.StatusBadRequest, "invalid_option"},
		{"nested batch no apps", `{"kind":"batch","request":{}}`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postJob(t, ts.URL+"/v1/jobs", tc.body, "")
			if code != tc.status {
				t.Fatalf("status %d, want %d (%s)", code, tc.status, body)
			}
			if got := decodeError(t, body); got != tc.code {
				t.Fatalf("error code %q, want %q (%s)", got, tc.code, body)
			}
		})
	}

	t.Run("unknown job", func(t *testing.T) {
		for _, probe := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/result", "/v1/jobs/j999999/events"} {
			code, body := get(t, ts.URL+probe)
			if code != http.StatusNotFound {
				t.Fatalf("GET %s: status %d, want 404: %s", probe, code, body)
			}
			if got := decodeError(t, body); got != "unknown_job" {
				t.Fatalf("GET %s: error code %q", probe, got)
			}
		}
		code, body := deleteJob(t, ts.URL, "j999999")
		if code != http.StatusNotFound {
			t.Fatalf("DELETE unknown job: status %d: %s", code, body)
		}
	})

	t.Run("method errors", func(t *testing.T) {
		code, body := get(t, ts.URL+"/v1/jobs")
		if code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/jobs: status %d, want 405: %s", code, body)
		}
		env := submitJob(t, ts.URL, "run", quickRunRequest, "", 5)
		waitJobState(t, ts.URL, env.ID, "done")
		code, body = postTB(t, ts.URL+"/v1/jobs/"+env.ID, `{}`)
		if code != http.StatusMethodNotAllowed {
			t.Fatalf("POST job: status %d, want 405: %s", code, body)
		}
		if got := decodeError(t, body); got != "method_not_allowed" {
			t.Fatalf("POST job error code %q", got)
		}
		code, body = postTB(t, ts.URL+"/v1/jobs/"+env.ID+"/result", `{}`)
		if code != http.StatusMethodNotAllowed {
			t.Fatalf("POST result: status %d, want 405: %s", code, body)
		}
	})

	t.Run("result before finish", func(t *testing.T) {
		_, ts2 := newTestServer(t, Config{JobWorkers: 1, MaxStates: 2_000_000_000})
		blocker := startBlocker(t, ts2.URL)
		queued := submitJob(t, ts2.URL, "run", quickRunRequest, "", 5)
		for _, id := range []string{blocker.ID, queued.ID} {
			code, body := get(t, ts2.URL+"/v1/jobs/"+id+"/result")
			if code != http.StatusConflict {
				t.Fatalf("unfinished job result: status %d, want 409: %s", code, body)
			}
			if got := decodeError(t, body); got != "not_finished" {
				t.Fatalf("unfinished result error code %q", got)
			}
		}
	})
}

// TestJobEventsStream: the NDJSON stream delivers envelopes as the job
// moves queued → running → done, each line flushed as it happens, and
// ends with the terminal envelope.
func TestJobEventsStream(t *testing.T) {
	baseline := goroutineBaseline()
	srv, ts := newTestServer(t, Config{JobWorkers: 1, MaxStates: 2_000_000_000})
	blocker := startBlocker(t, ts.URL)
	env := submitJob(t, ts.URL, "run", quickRunRequest, "alice", 5)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + env.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}

	br := bufio.NewReader(resp.Body)
	readEvent := func() jobJSON {
		t.Helper()
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading event line: %v", err)
		}
		var ev jobJSON
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad event line: %v\n%s", err, line)
		}
		if ev.ID != env.ID {
			t.Fatalf("event for job %q, want %q", ev.ID, env.ID)
		}
		return ev
	}

	// The first line arrives while the job is still queued behind the
	// blocker — it can only have reached the client through a flush.
	first := readEvent()
	if first.State != "queued" {
		t.Fatalf("first event state %q, want queued", first.State)
	}
	if first.Position == nil || *first.Position != 0 {
		t.Fatalf("first event queue position %v, want 0", first.Position)
	}

	if code, _ := deleteJob(t, ts.URL, blocker.ID); code != http.StatusOK {
		t.Fatalf("cancel blocker: status %d", code)
	}

	// Signals coalesce, so intermediate states may be skipped; states
	// must only move forward, and the stream must end on the terminal
	// envelope.
	rank := map[string]int{"queued": 0, "running": 1, "done": 2}
	last := first
	for !terminal(last.State) {
		ev := readEvent()
		if rank[ev.State] < rank[last.State] {
			t.Fatalf("events regressed %q -> %q", last.State, ev.State)
		}
		last = ev
	}
	if last.State != "done" {
		t.Fatalf("terminal event state %q, want done", last.State)
	}
	if last.Finished == nil {
		t.Fatal("terminal event has no finished timestamp")
	}
	if _, err := br.ReadBytes('\n'); err == nil {
		t.Fatal("stream kept going past the terminal envelope")
	}

	// A stream opened on an already-terminal job is one envelope long.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + env.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	dec := json.NewDecoder(resp2.Body)
	var ev jobJSON
	if err := dec.Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.State != "done" {
		t.Fatalf("terminal-job stream state %q", ev.State)
	}
	if dec.More() {
		t.Fatal("terminal-job stream has more than one envelope")
	}
	resp.Body.Close()
	resp2.Body.Close()
	srv.Close()
	ts.Close()
	checkNoLeaks(t, srv, baseline)
}

// TestJobProgressPhaseEntry: the snapshot that opens the assign phase,
// before any engine reports, is published as {"phase":"assign"}, so a
// BnB sweep job never claims the greedy engine or a best score of 0;
// every engine snapshot names bnb.
func TestJobProgressPhaseEntry(t *testing.T) {
	var mu sync.Mutex
	var seen []mhla.Progress
	_, ts := newTestServer(t, Config{JobWorkers: 1, Progress: func(p mhla.Progress) {
		mu.Lock()
		seen = append(seen, p)
		mu.Unlock()
	}})
	env := submitJob(t, ts.URL, "sweep", `{"app":"durbin","scale":"test","engine":"bnb"}`, "alice", 5)
	waitJobState(t, ts.URL, env.ID, "done")
	mu.Lock()
	defer mu.Unlock()
	entries, snapshots := 0, 0
	for _, p := range seen {
		if p.Phase != mhla.PhaseAssign {
			continue
		}
		raw, err := json.Marshal(progressJSON(p))
		if err != nil {
			t.Fatal(err)
		}
		if p.Engine == "" {
			entries++
			if string(raw) != `{"phase":"assign"}` {
				t.Errorf("phase entry published as %s", raw)
			}
			continue
		}
		snapshots++
		if !strings.HasPrefix(string(raw), `{"phase":"assign","engine":"bnb"`) {
			t.Errorf("engine snapshot published as %s", raw)
		}
	}
	if entries == 0 || snapshots == 0 {
		t.Fatalf("%d assign phase entries and %d engine snapshots, want both", entries, snapshots)
	}
}

// TestJobProgressSnapshots: a long search publishes engine progress
// into the job envelope (states climbing, the JSON-safe best_score
// form), reusing the flow's ProgressFunc plumbing.
func TestJobProgressSnapshots(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 1, MaxStates: 2_000_000_000})
	blocker := startBlocker(t, ts.URL)
	deadline := time.Now().Add(time.Minute)
	var saw bool
	for time.Now().Before(deadline) {
		env := getJob(t, ts.URL, blocker.ID)
		if env.State != "running" {
			t.Fatalf("blocker left running early: %q", env.State)
		}
		if env.Progress != nil {
			raw, err := json.Marshal(env.Progress)
			if err != nil {
				t.Fatalf("progress did not re-marshal: %v", err)
			}
			var p jobProgressJSON
			if err := json.Unmarshal(raw, &p); err != nil {
				t.Fatalf("progress is not the wire form: %v\n%s", err, raw)
			}
			if p.Phase == "assign" && p.States > 0 {
				saw = true
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !saw {
		t.Fatal("no assign-phase progress snapshot observed")
	}
	if code, _ := deleteJob(t, ts.URL, blocker.ID); code != http.StatusOK {
		t.Fatal("cancel blocker failed")
	}
}
