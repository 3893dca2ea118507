package progen

import (
	"testing"

	"mhla/internal/modelio"
	"mhla/internal/reuse"
)

// TestGenerateValidAndBounded: every generated scenario must pass
// model and platform validation, analyze cleanly, and stay within the
// decision-space budget.
func TestGenerateValidAndBounded(t *testing.T) {
	n := int64(500)
	if testing.Short() {
		n = 100
	}
	for seed := int64(0); seed < n; seed++ {
		sc := Generate(seed)
		if err := sc.Program.Validate(); err != nil {
			t.Fatalf("seed %d: invalid program: %v", seed, err)
		}
		if err := sc.Platform.Validate(); err != nil {
			t.Fatalf("seed %d: invalid platform: %v", seed, err)
		}
		if _, err := reuse.Analyze(sc.Program); err != nil {
			t.Fatalf("seed %d: analysis failed: %v", seed, err)
		}
		if sc.Space <= 0 || sc.Space > DefaultConfig().MaxSpace {
			t.Fatalf("seed %d: space %d outside (0, %d]", seed, sc.Space, DefaultConfig().MaxSpace)
		}
		if err := sc.Options.Validate(); err != nil {
			t.Fatalf("seed %d: invalid options: %v", seed, err)
		}
	}
}

// TestGenerateDeterministic: the same seed must reproduce the same
// scenario bit for bit (compared through the JSON interchange form
// and the platform rendering).
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		aj, err := modelio.EncodeProgram(a.Program)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		bj, err := modelio.EncodeProgram(b.Program)
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		if string(aj) != string(bj) {
			t.Fatalf("seed %d: programs differ:\n%s\nvs\n%s", seed, aj, bj)
		}
		if a.Platform.String() != b.Platform.String() {
			t.Fatalf("seed %d: platforms differ", seed)
		}
		if a.Options.Policy != b.Options.Policy || a.Options.Objective != b.Options.Objective ||
			a.Options.NoInPlace != b.Options.NoInPlace || a.Options.AbsoluteGain != b.Options.AbsoluteGain {
			t.Fatalf("seed %d: options differ: %+v vs %+v", seed, a.Options, b.Options)
		}
		if a.Space != b.Space {
			t.Fatalf("seed %d: space differs: %d vs %d", seed, a.Space, b.Space)
		}
	}
}

// TestGenerateVariety: across a modest seed range the generator must
// exercise the dimensions the differential harness cares about —
// multi-layer platforms, DMA-less platforms, multi-block programs,
// write chains, both policies and all objectives.
func TestGenerateVariety(t *testing.T) {
	var threeLayer, noDMA, multiBlock, refetch, writes, deepNest bool
	objectives := map[int]bool{}
	for seed := int64(0); seed < 200; seed++ {
		sc := Generate(seed)
		if len(sc.Platform.Layers) >= 3 {
			threeLayer = true
		}
		if sc.Platform.DMA == nil {
			noDMA = true
		}
		if len(sc.Program.Blocks) >= 2 {
			multiBlock = true
		}
		if sc.Options.Policy == 1 {
			refetch = true
		}
		objectives[int(sc.Options.Objective)] = true
		an, err := reuse.Analyze(sc.Program)
		if err != nil {
			t.Fatal(err)
		}
		for _, ch := range an.Chains {
			if ch.Kind == 1 {
				writes = true
			}
			if ch.Depth() >= 2 {
				deepNest = true
			}
		}
	}
	for name, ok := range map[string]bool{
		"three-layer platform": threeLayer,
		"platform without DMA": noDMA,
		"multi-block program":  multiBlock,
		"refetch policy":       refetch,
		"write chain":          writes,
		"depth-2 chain":        deepNest,
	} {
		if !ok {
			t.Errorf("no scenario with %s in 200 seeds", name)
		}
	}
	if len(objectives) != 3 {
		t.Errorf("objectives seen: %v, want all 3", objectives)
	}
}

// TestGenerateConfigBudget: a tiny space budget must still yield valid
// scenarios and respect the cap.
func TestGenerateConfigBudget(t *testing.T) {
	cfg := Config{MaxSpace: 64}
	for seed := int64(0); seed < 100; seed++ {
		sc := cfg.Generate(seed)
		if sc.Space > 64 {
			t.Fatalf("seed %d: space %d over the 64 budget", seed, sc.Space)
		}
		if err := sc.Program.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
