package assign

import (
	"context"
	"testing"

	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/reuse"
	"mhla/internal/workspace"
)

// TestExactSearchStateCap: hitting MaxStates must return a usable
// best-so-far result flagged incomplete, never an error or an
// invalid assignment.
func TestExactSearchStateCap(t *testing.T) {
	an := analyze(t, reuseProgram())
	opts := Options{}
	opts.Engine = Exhaustive
	opts.MaxStates = 1
	res, err := Search(context.Background(), workspace.FromAnalysis(an), testPlat(), opts)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if res.Complete {
		t.Error("result marked complete despite the cap")
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Errorf("capped result invalid: %v", err)
	}
	if !res.Assignment.Fits() {
		t.Error("capped result does not fit")
	}
	if res.Cost.Cycles <= 0 {
		t.Error("capped result has no cost")
	}
}

// TestGreedyNoImprovingMove: a program with no reuse and a tiny
// layer leaves the baseline untouched.
func TestGreedyNoImprovingMove(t *testing.T) {
	p := model.NewProgram("stream")
	// Streaming write only: every element touched once; copies or
	// homes cannot reduce energy at this layer cost.
	out := p.NewOutput("out", 2, 4096)
	p.AddBlock("emit", model.For("i", 4096, model.Store(out, model.Idx("i")), model.Work(1)))
	an := analyze(t, p)
	plat := testPlat()
	plat.Layers[0].Capacity = 64
	res, err := Search(context.Background(), workspace.FromAnalysis(an), plat, Options{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(res.Assignment.Selections()) != 0 {
		t.Errorf("selected copies on a stream-out program: %v", res.Assignment.Selections())
	}
	if res.Cost.Energy != res.Baseline.Energy {
		t.Errorf("cost changed without moves: %v vs %v", res.Cost.Energy, res.Baseline.Energy)
	}
}

// TestSearchEngineConsistencyThreeLevel: on a three-layer platform the
// exact engines agree with each other and bound the greedy.
func TestSearchEngineConsistencyThreeLevel(t *testing.T) {
	p := model.NewProgram("tiered")
	tbl := p.NewInput("tbl", 2, 2048)
	p.AddBlock("scan",
		model.For("rep", 8,
			model.For("seg", 16,
				model.For("i", 128,
					model.Load(tbl, model.IdxC(128, "seg").Plus(model.Idx("i"))),
					model.Work(2),
				))))
	an := analyze(t, p)
	plat := threeLevelPlat()
	opts := Options{}
	opts.Engine = BranchBound
	bb, err := Search(context.Background(), workspace.FromAnalysis(an), plat, opts)
	if err != nil {
		t.Fatalf("bnb: %v", err)
	}
	opts.Engine = Exhaustive
	ex, err := Search(context.Background(), workspace.FromAnalysis(an), plat, opts)
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	if bb.Cost.Energy != ex.Cost.Energy {
		t.Errorf("bnb %v != exhaustive %v", bb.Cost.Energy, ex.Cost.Energy)
	}
	opts.Engine = Greedy
	gr, err := Search(context.Background(), workspace.FromAnalysis(an), plat, opts)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	if gr.Cost.Energy < bb.Cost.Energy-1e-9 {
		t.Errorf("greedy %v beat optimal %v", gr.Cost.Energy, bb.Cost.Energy)
	}
	if err := bb.Assignment.Validate(); err != nil {
		t.Errorf("bnb result invalid: %v", err)
	}
}

func threeLevelPlat() *platform.Platform {
	return &platform.Platform{
		Name: "three",
		Layers: []platform.Layer{
			{Name: "L1", Capacity: 512, WordBytes: 2, EnergyRead: 1, EnergyWrite: 1,
				LatencyRead: 1, LatencyWrite: 1, BurstBytesPerCycle: 8},
			{Name: "L2", Capacity: 4096, WordBytes: 2, EnergyRead: 4, EnergyWrite: 4,
				LatencyRead: 2, LatencyWrite: 2, BurstBytesPerCycle: 8},
			{Name: "SDRAM", Capacity: 0, WordBytes: 2, EnergyRead: 50, EnergyWrite: 52,
				LatencyRead: 18, LatencyWrite: 18, BurstBytesPerCycle: 4, OffChip: true},
		},
		DMA: &platform.DMA{SetupCycles: 20, Channels: 2, EnergyPerTransfer: 25},
	}
}

// TestRefetchPolicySearch: the refetch ablation still produces valid,
// non-worsening assignments.
func TestRefetchPolicySearch(t *testing.T) {
	an := analyze(t, reuseProgram())
	opts := Options{}
	opts.Policy = reuse.Refetch
	res, err := Search(context.Background(), workspace.FromAnalysis(an), testPlat(), opts)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if res.Cost.Energy > res.Baseline.Energy {
		t.Error("refetch search worsened the baseline")
	}
	// Slide must be at least as good as refetch on this reuse-heavy
	// program.
	slide, err := Search(context.Background(), workspace.FromAnalysis(an), testPlat(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if slide.Cost.Energy > res.Cost.Energy+1e-9 {
		t.Errorf("slide %v worse than refetch %v", slide.Cost.Energy, res.Cost.Energy)
	}
}
