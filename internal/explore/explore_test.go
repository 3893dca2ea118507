package explore

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/assign"
	"mhla/internal/core"
	"mhla/internal/model"
	"mhla/internal/workspace"
)

// sweepProgram compiles a program's workspace and sweeps it.
func sweepProgram(p *model.Program, sizes []int64, opts assign.Options) (*Sweep, error) {
	ws, err := workspace.Compile(p)
	if err != nil {
		return nil, err
	}
	return Run(context.Background(), ws, sizes, core.Config{Search: opts})
}

func TestSweepDurbin(t *testing.T) {
	app, _ := apps.ByName("durbin")
	p := app.Build(apps.Test)
	sizes := []int64{256, 1024, 4096}
	sw, err := sweepProgram(p, sizes, assign.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(sw.Points) != 3 {
		t.Fatalf("points = %d", len(sw.Points))
	}
	// Larger scratchpads can only help or tie the search objective
	// (energy) until SRAM cost growth bites; at these small sizes
	// energy must be non-increasing.
	for i := 1; i < len(sw.Points); i++ {
		prev, cur := sw.Points[i-1].Result.MHLA, sw.Points[i].Result.MHLA
		if cur.Energy > prev.Energy*1.5 {
			t.Errorf("energy exploded from %v to %v between sizes %d and %d",
				prev.Energy, cur.Energy, sw.Points[i-1].L1, sw.Points[i].L1)
		}
		if cur.Cycles > sw.Points[i].Result.Original.Cycles {
			t.Errorf("size %d: MHLA above original", sw.Points[i].L1)
		}
	}
}

func TestSweepFrontierNonEmpty(t *testing.T) {
	app, _ := apps.ByName("voice")
	sw, err := sweepProgram(app.Build(apps.Test), []int64{256, 1024, 4096}, assign.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	front := sw.Frontier()
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	if len(front) > len(sw.Points) {
		t.Fatalf("frontier larger than sweep")
	}
	// Every frontier point must come from the sweep.
	for _, fp := range front {
		found := false
		for _, p := range sw.TEPoints() {
			if p == fp {
				found = true
			}
		}
		if !found {
			t.Errorf("frontier point %v not in sweep", fp)
		}
	}
}

func TestDefaultSizes(t *testing.T) {
	sizes := DefaultSizes()
	if len(sizes) != 17 {
		t.Fatalf("len(DefaultSizes) = %d, want 17: %v", len(sizes), sizes)
	}
	if sizes[0] != 256 || sizes[len(sizes)-1] != 64*1024 {
		t.Errorf("DefaultSizes = %v", sizes)
	}
	// Powers of two at even indices, ×1.5 midpoints at odd indices,
	// strictly ascending overall.
	for i, s := range sizes {
		pow := int64(256) << (i / 2)
		want := pow
		if i%2 == 1 {
			want = pow + pow/2
		}
		if s != want {
			t.Errorf("sizes[%d] = %d, want %d (%v)", i, s, want, sizes)
		}
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Errorf("sizes not ascending: %v", sizes)
		}
	}
}

func TestSweepCSVAndString(t *testing.T) {
	app, _ := apps.ByName("sobel")
	sw, err := sweepProgram(app.Build(apps.Test), []int64{512}, assign.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	csv := sw.CSV()
	if !strings.HasPrefix(csv, "app,l1_bytes,orig_cycles") {
		t.Errorf("CSV header missing: %q", csv)
	}
	if !strings.Contains(csv, "sobel,512,") {
		t.Errorf("CSV row missing: %q", csv)
	}
	s := sw.String()
	if !strings.Contains(s, "exploration of sobel") || !strings.Contains(s, "512") {
		t.Errorf("String = %q", s)
	}
}

// TestSweepSchemaEngineProvenance pins the wire schemas of a sweep
// point: the snake_case JSON keys — including the engine provenance
// field — and the CSV engine column, for every engine in the
// registry. Renaming a field here breaks external consumers of
// /v1/sweep and mhla-explore -csv.
func TestSweepSchemaEngineProvenance(t *testing.T) {
	app, _ := apps.ByName("sobel")
	p := app.Build(apps.Test)
	for _, engine := range []assign.Engine{assign.Greedy, assign.BranchBound, assign.Stochastic} {
		opts := assign.Options{}
		opts.Engine = engine
		sw, err := sweepProgram(p, []int64{512}, opts)
		if err != nil {
			t.Fatalf("%v: Run: %v", engine, err)
		}
		data, err := sw.JSON()
		if err != nil {
			t.Fatalf("%v: JSON: %v", engine, err)
		}
		var decoded struct {
			Points []map[string]any `json:"points"`
		}
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("%v: sweep JSON invalid: %v", engine, err)
		}
		if len(decoded.Points) != 1 {
			t.Fatalf("%v: %d points", engine, len(decoded.Points))
		}
		for _, key := range []string{
			"l1_bytes", "orig_cycles", "mhla_cycles", "te_cycles",
			"ideal_cycles", "orig_pj", "mhla_pj", "search_states",
			"te_applicable", "engine",
		} {
			if _, ok := decoded.Points[0][key]; !ok {
				t.Errorf("%v: sweep point missing key %q", engine, key)
			}
		}
		if got := decoded.Points[0]["engine"]; got != engine.String() {
			t.Errorf("point engine = %v, want %v", got, engine)
		}
		csv := sw.CSV()
		if !strings.HasPrefix(csv, "app,l1_bytes,orig_cycles,mhla_cycles,te_cycles,ideal_cycles,orig_pj,mhla_pj,engine\n") {
			t.Errorf("%v: CSV header drifted: %q", engine, csv)
		}
		if !strings.Contains(csv, ","+engine.String()+"\n") {
			t.Errorf("%v: CSV row missing engine column: %q", engine, csv)
		}
	}
}

func TestSweepDefaultsWhenNoSizes(t *testing.T) {
	app, _ := apps.ByName("durbin")
	sw, err := sweepProgram(app.Build(apps.Test), nil, assign.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(sw.Points) != len(DefaultSizes()) {
		t.Errorf("points = %d, want %d", len(sw.Points), len(DefaultSizes()))
	}
}

// TestSweepReportsFirstFailureInSizeOrder: a sweep with failing points
// reports the first failure in ascending-size order — the same error a
// sequential ascending sweep reports — for every engine at every
// worker count, never the lowest failing input index.
func TestSweepReportsFirstFailureInSizeOrder(t *testing.T) {
	app, _ := apps.ByName("durbin")
	ws, err := workspace.Compile(app.Build(apps.Test))
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int64{4096, -3, 1024, -7}
	for _, engine := range []assign.Engine{assign.Greedy, assign.BranchBound} {
		opts := assign.Options{}
		opts.Engine = engine
		for _, workers := range []int{1, 2, 4, 8} {
			opts.Workers = workers
			_, err := Run(context.Background(), ws, sizes, core.Config{Search: opts})
			if err == nil || !strings.Contains(err.Error(), "size -7:") {
				t.Errorf("%v workers=%d: error %v, want the size -7 failure", engine, workers, err)
			}
		}
	}
}

// TestSweepZeroSearchMeansDefaults: a zero Config.Search is the paper
// configuration at GOMAXPROCS workers, and the sweep's own per-point
// worker cap changes only scheduling: the sweep equals the same
// options at explicit worker counts 1 and 4.
func TestSweepZeroSearchMeansDefaults(t *testing.T) {
	for _, name := range []string{"durbin", "qsdpcm", "voice"} {
		app, _ := apps.ByName(name)
		ws, err := workspace.Compile(app.Build(apps.Test))
		if err != nil {
			t.Fatal(err)
		}
		sizes := []int64{256, 1024, 4096}
		sw, err := Run(context.Background(), ws, sizes, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := sw.JSON()
		for _, workers := range []int{1, 4} {
			opts := assign.Options{}
			opts.Workers = workers
			ref, err := Run(context.Background(), ws, sizes, core.Config{Search: opts})
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := ref.JSON(); string(got) != string(want) {
				t.Errorf("%s workers=%d: zero-options sweep differs from the explicit-workers sweep", name, workers)
			}
		}
	}
}
