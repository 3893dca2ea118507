package mhla_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"mhla/pkg/mhla"
)

func TestSimulateDefaults(t *testing.T) {
	p := reuseProgram()
	cfg := mhla.CacheConfigFor(mhla.TwoLevel(mhla.DefaultL1), 0, 0)
	res, err := mhla.Simulate(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Program != "reuse" || len(res.Levels) != 1 {
		t.Fatalf("unexpected result shape: program %q, %d levels", res.Program, len(res.Levels))
	}
	l1 := res.Levels[0]
	if l1.Accesses != res.Accesses || l1.Hits+l1.PrefetchHits+l1.Misses != l1.Accesses {
		t.Fatalf("conservation broken: %+v", l1)
	}
	// The scanned lookup table fits on chip: the repeated scans must
	// hit overwhelmingly.
	if l1.Hits <= l1.Misses {
		t.Fatalf("expected a hit-dominated scan, got hits %d misses %d", l1.Hits, l1.Misses)
	}
	out, err := mhla.SimulateJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out, []byte(`"levels"`)) || !bytes.Contains(out, []byte(`"energy_pj"`)) {
		t.Fatalf("unexpected JSON: %s", out)
	}
}

// TestSimulateWorkspaceReuse: a precompiled workspace produces the
// same bytes as per-call compilation.
func TestSimulateWorkspaceReuse(t *testing.T) {
	p := reuseProgram()
	ws, err := mhla.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mhla.CacheConfigFor(mhla.TwoLevel(mhla.DefaultL1), 2, 16)
	a, err := mhla.Simulate(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mhla.Simulate(context.Background(), p, cfg, mhla.WithWorkspace(ws))
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := mhla.SimulateJSON(a)
	bj, _ := mhla.SimulateJSON(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("workspace reuse changed the result:\n%s\nvs\n%s", aj, bj)
	}
}

func TestSimulateOptionErrors(t *testing.T) {
	p := reuseProgram()
	bad := mhla.CacheConfig{Levels: []mhla.CacheLevel{{Sets: 3, Ways: 1, LineBytes: 32}}}
	_, err := mhla.Simulate(context.Background(), p, bad)
	var oe *mhla.OptionError
	if !errors.As(err, &oe) || oe.Field != "CacheConfig" {
		t.Fatalf("err = %v, want *OptionError{Field: CacheConfig}", err)
	}
	// Workspace/program mismatch is the standard typed error.
	other, err := mhla.Compile(reuseProgram())
	if err != nil {
		t.Fatal(err)
	}
	_, err = mhla.Simulate(context.Background(), p, mhla.CacheConfig{}, mhla.WithWorkspace(other))
	if !errors.As(err, &oe) || oe.Field != "Workspace" {
		t.Fatalf("err = %v, want *OptionError{Field: Workspace}", err)
	}
}

func TestSimulateTraceLimit(t *testing.T) {
	p := reuseProgram()
	_, err := mhla.Simulate(context.Background(), p, mhla.CacheConfig{MaxAccesses: 5})
	if !errors.Is(err, mhla.ErrTraceLimit) {
		t.Fatalf("err = %v, want ErrTraceLimit", err)
	}
}

// TestSimulateTraceNegativeLimit: a negative trace budget is an error,
// not the simulator's default bound.
func TestSimulateTraceNegativeLimit(t *testing.T) {
	an, err := mhla.Analyze(reuseProgram())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := mhla.Search(context.Background(), an, mhla.TwoLevel(mhla.DefaultL1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mhla.SimulateTrace(sr.Assignment, 0); err != nil {
		t.Fatalf("default budget: %v", err)
	}
	if _, err := mhla.SimulateTrace(sr.Assignment, -1); err == nil {
		t.Fatal("SimulateTrace accepted a negative access budget")
	}
}

func TestSimulatePrefetcherParse(t *testing.T) {
	for _, s := range []string{"none", "nextline", "stride"} {
		if _, err := mhla.ParseCachePrefetcher(s); err != nil {
			t.Errorf("ParseCachePrefetcher(%q): %v", s, err)
		}
	}
	if _, err := mhla.ParseCachePrefetcher("markov"); err == nil {
		t.Error("unknown prefetcher parsed")
	}
}
