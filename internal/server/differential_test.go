package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"mhla/internal/progen"
	"mhla/pkg/mhla"
)

// diffScenarios is the progen seed count of the server differential
// suite.
const diffScenarios = 40

// diffCase is one precomputed differential scenario: the wire requests
// and the expected byte-exact responses from direct facade calls.
type diffCase struct {
	seed      int64
	runBody   string
	runWant   []byte
	sweepBody string
	sweepWant []byte
}

// diffSweepSizes are the L1 sizes the sweep half of the suite uses.
var diffSweepSizes = []int64{256, 1024, 4096}

// buildDiffCases generates the scenarios and computes the expected
// responses through the public facade — the reference the server
// transport must reproduce byte for byte.
func buildDiffCases(t testing.TB) []*diffCase {
	t.Helper()
	return buildDiffCasesN(t, diffScenarios)
}

// buildDiffCasesN builds the first n scenarios (the async job suite
// uses a smaller slice of the same reference set).
func buildDiffCasesN(t testing.TB, n int) []*diffCase {
	t.Helper()
	cases := make([]*diffCase, 0, n)
	for seed := int64(0); seed < int64(n); seed++ {
		sc := progen.Generate(seed)
		engineName := "greedy"
		engine := mhla.Greedy
		if seed%2 == 1 {
			engineName, engine = "bnb", mhla.BnB
		}
		policyName := "slide"
		if sc.Options.Policy == mhla.Refetch {
			policyName = "refetch"
		}

		progJSON, err := mhla.EncodeProgram(sc.Program)
		if err != nil {
			t.Fatalf("seed %d: encode program: %v", seed, err)
		}
		platJSON, err := mhla.EncodePlatform(sc.Platform)
		if err != nil {
			t.Fatalf("seed %d: encode platform: %v", seed, err)
		}

		flags := fmt.Sprintf(`"engine":%q,"objective":%q,"policy":%q`,
			engineName, sc.Options.Objective.String(), policyName)
		if sc.Options.NoInPlace {
			flags += `,"no_in_place":true`
		}
		if sc.Options.AbsoluteGain {
			flags += `,"absolute_gain":true`
		}

		opts := []mhla.Option{
			mhla.WithEngine(engine),
			mhla.WithObjective(sc.Options.Objective),
			mhla.WithPolicy(sc.Options.Policy),
		}
		if sc.Options.NoInPlace {
			opts = append(opts, mhla.WithoutInPlace())
		}
		if sc.Options.AbsoluteGain {
			opts = append(opts, mhla.WithAbsoluteGain())
		}

		res, err := mhla.Run(context.Background(), sc.Program,
			append([]mhla.Option{mhla.WithPlatform(sc.Platform)}, opts...)...)
		if err != nil {
			t.Fatalf("seed %d: direct run: %v", seed, err)
		}
		runWant, err := mhla.ResultJSON(res)
		if err != nil {
			t.Fatalf("seed %d: encode result: %v", seed, err)
		}

		sw, err := mhla.SweepL1(context.Background(), sc.Program, diffSweepSizes, opts...)
		if err != nil {
			t.Fatalf("seed %d: direct sweep: %v", seed, err)
		}
		sweepWant, err := sw.JSON()
		if err != nil {
			t.Fatalf("seed %d: encode sweep: %v", seed, err)
		}

		cases = append(cases, &diffCase{
			seed:      seed,
			runBody:   fmt.Sprintf(`{"program":%s,"platform":%s,%s}`, progJSON, platJSON, flags),
			runWant:   runWant,
			sweepBody: fmt.Sprintf(`{"program":%s,"sizes":[256,1024,4096],%s}`, progJSON, flags),
			sweepWant: sweepWant,
		})
	}
	return cases
}

// checkDiffCase replays one scenario against the server and compares
// bytes.
func checkDiffCase(t testing.TB, baseURL string, c *diffCase) {
	t.Helper()
	for _, ep := range []struct {
		path string
		body string
		want []byte
	}{
		{"/v1/run", c.runBody, c.runWant},
		{"/v1/sweep", c.sweepBody, c.sweepWant},
	} {
		code, body := postTB(t, baseURL+ep.path, ep.body)
		if code != http.StatusOK {
			t.Errorf("seed %d %s: status %d: %s", c.seed, ep.path, code, body)
			continue
		}
		if !bytes.Equal(body, ep.want) {
			t.Errorf("seed %d %s: response diverged from direct facade call\nserver: %s\nfacade: %s",
				c.seed, ep.path, body, ep.want)
		}
	}
}

// TestServerDifferential: for every progen scenario, /v1/run and
// /v1/sweep responses are byte-identical to direct facade calls —
// first from a single client, then hammered by 8 concurrent clients
// (run under -race in CI).
func TestServerDifferential(t *testing.T) {
	cases := buildDiffCases(t)
	srv, ts := newTestServer(t, Config{CacheEntries: diffScenarios + 8})

	t.Run("sequential", func(t *testing.T) {
		for _, c := range cases {
			checkDiffCase(t, ts.URL, c)
		}
		if got := srv.Stats().Cache.Compiles; got != diffScenarios {
			t.Errorf("sequential pass compiled %d workspaces, want %d (one per program)",
				got, diffScenarios)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		const clients = 8
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Stagger the starting offset so clients collide on
				// different programs at the same time.
				for i := range cases {
					checkDiffCase(t, ts.URL, cases[(i+c*5)%len(cases)])
				}
			}()
		}
		wg.Wait()
	})

	// The concurrent pass re-requested only already-cached programs:
	// compiles never exceed one per distinct program (stated as an
	// upper bound so -run filtering to one subtest stays green).
	if got := srv.Stats().Cache.Compiles; got > diffScenarios {
		t.Errorf("concurrent pass recompiled workspaces: %d compiles, want <= %d",
			got, diffScenarios)
	}
	if got := srv.Stats().InFlight; got != 0 {
		t.Errorf("in-flight gauge did not drain: %d", got)
	}
}

// postTB sends a JSON body and returns status and response bytes (the
// package-wide POST helper for tests and benchmarks). Transport
// failures are reported with Errorf — not FailNow, which must not run
// off the test goroutine — and surface as status 0 to the caller.
func postTB(t testing.TB, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
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
