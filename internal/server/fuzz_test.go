package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzServerDecode throws arbitrary bodies at the three JSON compute
// endpoints: malformed JSON, truncated programs, hostile dimensions
// and knobs. The contract is that bad input is always answered with a
// typed 4xx error body — never a panic, never a 5xx — and input that
// happens to be valid is answered with valid JSON. The fuzz server
// runs with tight guardrails (small bodies, tiny state budgets, a
// small cache) so even a lucky valid mutation stays cheap.
func FuzzServerDecode(f *testing.F) {
	endpoints := []string{"/v1/run", "/v1/sweep", "/v1/batch"}

	// Valid requests (mutation starting points)...
	f.Add(byte(0), []byte(`{"app":"durbin","scale":"test","l1_bytes":512}`))
	f.Add(byte(0), []byte(`{"app":"me","engine":"bnb","objective":"time","policy":"refetch","workers":2,"max_states":1000}`))
	f.Add(byte(1), []byte(`{"app":"durbin","scale":"test","sizes":[256,512],"workers":2}`))
	f.Add(byte(2), []byte(`{"apps":["durbin","sobel"],"scale":"test","l1_sizes":[512],"objectives":["energy"]}`))
	f.Add(byte(0), []byte(`{"program":{"name":"p","arrays":[{"name":"a","elem_size":2,"dims":[16],"input":true}],"blocks":[{"name":"b","body":[{"loop":{"var":"i","trip":16,"body":[{"load":{"array":"a","index":[{"terms":[{"var":"i","coef":1}]}]}},{"compute":2}]}}]}]}}`))
	// ...and hostile ones: truncated program, absurd dimensions,
	// negative knobs, wrong shapes, trailing garbage.
	f.Add(byte(0), []byte(`{"program":{"name":"p","arrays":[{"name":"a","elem_size":`))
	f.Add(byte(0), []byte(`{"program":{"name":"p","arrays":[{"name":"a","elem_size":2147483647,"dims":[2147483647,2147483647]}],"blocks":[{"name":"b","body":[]}]}}`))
	f.Add(byte(1), []byte(`{"app":"me","sizes":[-1,0,9223372036854775807]}`))
	f.Add(byte(2), []byte(`{"apps":["me"],"workers":-5}`))
	f.Add(byte(0), []byte(`[1,2,3]`))
	f.Add(byte(0), []byte(`{"app":"me"}{"app":"me"}`))
	f.Add(byte(1), []byte(`null`))
	f.Add(byte(2), []byte(``))

	fuzzEndpoints(f, endpoints)
}

// FuzzSimulateDecode throws arbitrary bodies at POST /v1/simulate:
// malformed JSON, hostile cache geometries, unknown prefetchers,
// oversized budgets. Same contract as FuzzServerDecode — typed 4xx for
// bad input, never a panic or 5xx.
func FuzzSimulateDecode(f *testing.F) {
	endpoints := []string{"/v1/simulate"}

	// Valid requests (mutation starting points)...
	f.Add(byte(0), []byte(`{"app":"durbin","scale":"test"}`))
	f.Add(byte(0), []byte(`{"app":"durbin","scale":"test","levels":[]}`))
	f.Add(byte(0), []byte(`{"app":"sobel","scale":"test","l1_bytes":2048,"levels":[{"sets":16,"ways":2,"line_bytes":32,"prefetcher":"stride","prefetch_entries":16,"prefetch_degree":2,"prefetch_latency":3}]}`))
	f.Add(byte(0), []byte(`{"app":"durbin","scale":"test","levels":[{"sets":8,"ways":1,"line_bytes":16,"prefetcher":"nextline"}],"max_accesses":100000}`))
	// ...and hostile ones: broken geometry, unknown prefetcher, level
	// floods, giant budgets, truncated JSON, trailing garbage.
	f.Add(byte(0), []byte(`{"app":"durbin","scale":"test","levels":[{"sets":3,"ways":0,"line_bytes":-7}]}`))
	f.Add(byte(0), []byte(`{"app":"durbin","scale":"test","levels":[{"prefetcher":"markov"}]}`))
	f.Add(byte(0), []byte(`{"app":"durbin","scale":"test","levels":[{},{},{},{},{},{},{},{}]}`))
	f.Add(byte(0), []byte(`{"app":"durbin","scale":"test","max_accesses":9223372036854775807}`))
	f.Add(byte(0), []byte(`{"app":"durbin","levels":[{"sets":1048576,"ways":64,"line_bytes":4096}`))
	f.Add(byte(0), []byte(`{"app":"durbin","scale":"test","levels":[{"sets":1048576,"ways":64,"line_bytes":32}]}`))
	f.Add(byte(0), []byte(`{"levels":[{"sets":4,"ways":1,"line_bytes":32}]}`))
	f.Add(byte(0), []byte(`{"app":"durbin","scale":"test"}{"app":"durbin"}`))
	f.Add(byte(0), []byte(`null`))

	fuzzEndpoints(f, endpoints)
}

// FuzzJobSubmit throws arbitrary bodies at POST /v1/jobs: unknown
// kinds, out-of-range priorities, missing or null nested requests and
// every malformation of the nested compute request. An accepted body
// must be answered 202 with a job envelope carrying an ID; anything
// else must be a typed 4xx, never a panic or 5xx. Accepted jobs stay
// cheap (one worker, a four-job backlog, a tiny state budget). It is
// its own target because FuzzServerDecode picks its endpoint by index,
// so a new endpoint there would move that target's committed corpus.
func FuzzJobSubmit(f *testing.F) {
	f.Add([]byte(`{"kind":"run","request":{"app":"durbin","scale":"test","l1_bytes":512}}`))
	f.Add([]byte(`{"kind":"sweep","priority":7,"request":{"app":"durbin","scale":"test","sizes":[256,512]}}`))
	f.Add([]byte(`{"kind":"batch","request":{"apps":["durbin","sobel"],"scale":"test","l1_sizes":[512]}}`))
	f.Add([]byte(`{"kind":"simulate","request":{"app":"durbin","scale":"test"}}`))
	f.Add([]byte(`{"kind":"run","priority":10,"request":{"app":"durbin","scale":"test"}}`))
	f.Add([]byte(`{"kind":"compile","request":{"app":"durbin"}}`))
	f.Add([]byte(`{"kind":"run","request":null}`))
	f.Add([]byte(`{"kind":"sweep","request":{"app":"durbin","scale":"test","sizes":[2560000]}}`))

	srv := New(Config{
		CacheEntries: 8,
		MaxBodyBytes: 1 << 16,
		MaxStates:    20_000,
		MaxInFlight:  2,
		JobWorkers:   1,
		JobBacklog:   4,
	})
	f.Cleanup(srv.Close)
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		if rec.Code == http.StatusAccepted {
			var env jobJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.ID == "" {
				t.Fatalf("202 for body %q is not a job envelope with an ID (%v):\n%s", body, err, rec.Body.Bytes())
			}
			return
		}
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("/v1/jobs answered %d for body %q, want 202 or 4xx:\n%s", rec.Code, body, rec.Body.Bytes())
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" || eb.Error.Message == "" {
			t.Fatalf("/v1/jobs %d for body %q is not the typed error envelope (%v):\n%s",
				rec.Code, body, err, rec.Body.Bytes())
		}
	})
}

// fuzzEndpoints is the shared harness of the decode fuzzers: a tightly
// guarded server answering fuzzed bodies on a fixed endpoint list.
func fuzzEndpoints(f *testing.F, endpoints []string) {

	srv := New(Config{
		CacheEntries: 8,
		MaxBodyBytes: 1 << 16,
		MaxStates:    20_000,
		MaxInFlight:  2,
	})
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		endpoint := endpoints[int(which)%len(endpoints)]
		req := httptest.NewRequest(http.MethodPost, endpoint, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)

		resp := rec.Result()
		defer resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("%s answered %d for body %q:\n%s", endpoint, resp.StatusCode, body, rec.Body.Bytes())
		}
		if resp.StatusCode == http.StatusOK {
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s 200 response is not valid JSON:\n%s", endpoint, rec.Body.Bytes())
			}
			return
		}
		// Every non-2xx must carry the typed error envelope.
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s %d response is not the typed error envelope (%v):\n%s",
				endpoint, resp.StatusCode, err, rec.Body.Bytes())
		}
		if eb.Error.Code == "" || eb.Error.Message == "" {
			t.Fatalf("%s %d typed error missing code or message:\n%s",
				endpoint, resp.StatusCode, rec.Body.Bytes())
		}
	})
}
