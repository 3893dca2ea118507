package assign

import (
	"context"
	"slices"
	"strings"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/energy"
	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/reuse"
	"mhla/internal/workspace"
)

// testPlat builds the reference two-level platform used throughout the
// package tests: L1 (2 KiB, 1 cycle, 1/1.1 pJ) + SDRAM (18 cycles,
// 50/52 pJ), DMA setup 20 cycles, burst bottleneck 4 B/cycle.
func testPlat() *platform.Platform {
	return &platform.Platform{
		Name: "test",
		Layers: []platform.Layer{
			{Name: "L1", Capacity: 2048, WordBytes: 2, EnergyRead: 1, EnergyWrite: 1.1,
				LatencyRead: 1, LatencyWrite: 1, BurstBytesPerCycle: 8},
			{Name: "SDRAM", Capacity: 0, WordBytes: 2, EnergyRead: 50, EnergyWrite: 52,
				LatencyRead: 18, LatencyWrite: 18, BurstBytesPerCycle: 4, OffChip: true},
		},
		DMA: &platform.DMA{SetupCycles: 20, Channels: 2, EnergyPerTransfer: 25},
	}
}

// scanProgram: 64 iterations, one 2-byte read + 2 compute cycles each.
func scanProgram() *model.Program {
	p := model.NewProgram("scan")
	a := p.NewInput("a", 2, 64)
	p.AddBlock("scan", model.For("i", 64, model.Load(a, model.Idx("i")), model.Work(2)))
	return p
}

// reuseProgram: the whole table re-read 16 times — strong reuse, so a
// copy at L1 pays off in both energy and time.
func reuseProgram() *model.Program {
	p := model.NewProgram("reuse")
	tbl := p.NewInput("tbl", 2, 256)
	p.AddBlock("scan",
		model.For("rep", 16,
			model.For("i", 256,
				model.Load(tbl, model.Idx("i")),
				model.Work(1),
			),
		),
	)
	return p
}

func analyze(t *testing.T, p *model.Program) *reuse.Analysis {
	t.Helper()
	an, err := reuse.Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return an
}

func TestBaselineEvaluate(t *testing.T) {
	an := analyze(t, scanProgram())
	a := New(an, testPlat(), reuse.Slide)
	c := a.Evaluate(EvalOptions{})
	// 64 reads at 18 cycles + 128 compute.
	if c.AccessCycles != 64*18 {
		t.Errorf("AccessCycles = %d, want %d", c.AccessCycles, 64*18)
	}
	if c.ComputeCycles != 128 {
		t.Errorf("ComputeCycles = %d, want 128", c.ComputeCycles)
	}
	if c.StallCycles != 0 || c.InitCycles != 0 || c.ContentionCycles != 0 {
		t.Errorf("unexpected stall/init/contention: %+v", c)
	}
	if c.Cycles != 64*18+128 {
		t.Errorf("Cycles = %d, want %d", c.Cycles, 64*18+128)
	}
	if c.Energy != 64*50.0 {
		t.Errorf("Energy = %v, want 3200", c.Energy)
	}
	if c.PerLayerAccesses[1] != 64 || c.PerLayerAccesses[0] != 0 {
		t.Errorf("PerLayerAccesses = %v", c.PerLayerAccesses)
	}
}

func TestEvaluateWithCopy(t *testing.T) {
	an := analyze(t, scanProgram())
	a := New(an, testPlat(), reuse.Slide)
	a.Select(an.Chains[0].ID, 0, 0) // whole 128B table at L1
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	c := a.Evaluate(EvalOptions{})
	// One 128B fill: 20 setup + 128/4 = 52 cycles, fully stalled.
	if c.StallCycles != 52 {
		t.Errorf("StallCycles = %d, want 52", c.StallCycles)
	}
	if c.AccessCycles != 64 {
		t.Errorf("AccessCycles = %d, want 64", c.AccessCycles)
	}
	if c.Cycles != 128+64+52 {
		t.Errorf("Cycles = %d, want %d", c.Cycles, 128+64+52)
	}
	// Energy: 64 L1 reads + fill (64 SDRAM reads + 64 L1 writes + DMA).
	wantE := 64*1.0 + 64*50.0 + 64*1.1 + 25
	if diff := c.Energy - wantE; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Energy = %v, want %v", c.Energy, wantE)
	}
}

func TestEvaluateIdealZeroesStalls(t *testing.T) {
	an := analyze(t, reuseProgram())
	a := New(an, testPlat(), reuse.Slide)
	a.Select(an.Chains[0].ID, 0, 0)
	noTE := a.Evaluate(EvalOptions{})
	ideal := a.Evaluate(EvalOptions{Ideal: true})
	if ideal.StallCycles != 0 {
		t.Errorf("ideal StallCycles = %d", ideal.StallCycles)
	}
	if ideal.Cycles >= noTE.Cycles {
		t.Errorf("ideal %d not below noTE %d", ideal.Cycles, noTE.Cycles)
	}
	if ideal.Energy != noTE.Energy {
		t.Errorf("ideal energy %v != noTE energy %v (must be identical)", ideal.Energy, noTE.Energy)
	}
}

func TestEvaluateHiddenPartial(t *testing.T) {
	an := analyze(t, reuseProgram())
	a := New(an, testPlat(), reuse.Slide)
	ch := an.Chains[0]
	a.Select(ch.ID, 0, 0)
	streams := a.Streams()
	if len(streams) != 1 {
		t.Fatalf("streams = %d, want 1 (single fill)", len(streams))
	}
	st := streams[0]
	if st.BTTime != 20+512/4 {
		t.Errorf("BTTime = %d, want 148", st.BTTime)
	}
	hidden := map[StreamKey]int64{st.Key: 100}
	c := a.Evaluate(EvalOptions{Hidden: hidden})
	if c.StallCycles != st.BTTime-100 {
		t.Errorf("StallCycles = %d, want %d", c.StallCycles, st.BTTime-100)
	}
	// Hidden beyond BTTime clamps.
	hidden[st.Key] = 1 << 40
	c = a.Evaluate(EvalOptions{Hidden: hidden})
	if c.StallCycles != 0 {
		t.Errorf("StallCycles = %d, want 0 when over-hidden", c.StallCycles)
	}
}

func TestEvaluateMatchesContribDecomposition(t *testing.T) {
	// Evaluate must equal compute + sum of per-chain and per-array
	// contributions; branch-and-bound relies on this decomposition.
	progs := []*model.Program{scanProgram(), reuseProgram()}
	for _, p := range progs {
		an := analyze(t, p)
		plat := testPlat()
		a := New(an, plat, reuse.Slide)
		a.Select(an.Chains[0].ID, 1, 0)
		c := a.Evaluate(EvalOptions{})
		sum := contrib{cycles: p.ComputeCycles()}
		for _, ch := range an.Chains {
			var lv, ly []int
			if ca := a.Chains[ch.ID]; ca != nil {
				lv, ly = ca.Levels, ca.Layers
			}
			sum = sum.plus(chainContrib(plat, a.Policy, ch, a.ArrayHome[ch.Array.Name], lv, ly))
		}
		for _, arr := range p.Arrays {
			sum = sum.plus(arrayContrib(plat, arr, a.ArrayHome[arr.Name]))
		}
		if sum.cycles != c.Cycles {
			t.Errorf("%s: decomposed cycles %d != evaluated %d", p.Name, sum.cycles, c.Cycles)
		}
		if diff := sum.energy - c.Energy; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: decomposed energy %v != evaluated %v", p.Name, sum.energy, c.Energy)
		}
	}
}

func TestArrayHomeOnChip(t *testing.T) {
	an := analyze(t, scanProgram())
	a := New(an, testPlat(), reuse.Slide)
	a.SetHome("a", 0)
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	c := a.Evaluate(EvalOptions{})
	// Input array homed on-chip: one 128B init fill.
	if c.InitCycles != 52 {
		t.Errorf("InitCycles = %d, want 52", c.InitCycles)
	}
	if c.AccessCycles != 64 {
		t.Errorf("AccessCycles = %d, want 64 (L1 hits)", c.AccessCycles)
	}
	if got := a.PeakUsage(0); got != 128 {
		t.Errorf("PeakUsage(L1) = %d, want 128", got)
	}
}

func TestValidateRejections(t *testing.T) {
	an := analyze(t, reuseProgram())
	plat := testPlat()
	cases := []struct {
		name   string
		mutate func(a *Assignment)
		want   string
	}{
		{"copy on background", func(a *Assignment) {
			a.Chains[an.Chains[0].ID] = &ChainAssign{Chain: an.Chains[0], Levels: []int{0}, Layers: []int{1}}
		}, "background"},
		{"level out of range", func(a *Assignment) {
			a.Chains[an.Chains[0].ID] = &ChainAssign{Chain: an.Chains[0], Levels: []int{9}, Layers: []int{0}}
		}, "out of range"},
		{"non-monotone", func(a *Assignment) {
			a.Chains[an.Chains[0].ID] = &ChainAssign{Chain: an.Chains[0], Levels: []int{0, 1}, Layers: []int{0, 0}}
		}, "not closer"},
		{"home too small", func(a *Assignment) {
			a.SetHome("tbl", 0)
			a.Platform.Layers[0].Capacity = 8
		}, "cannot fit"},
		{"missing home", func(a *Assignment) {
			delete(a.ArrayHome, "tbl")
		}, "no home"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := New(an, testPlat(), reuse.Slide)
			_ = plat
			c.mutate(a)
			err := a.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken assignment")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestGreedyImprovesReuseProgram(t *testing.T) {
	an := analyze(t, reuseProgram())
	res, err := Search(context.Background(), workspace.FromAnalysis(an), testPlat(), Options{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if !res.Assignment.Fits() {
		t.Error("greedy result does not fit")
	}
	if err := res.Assignment.Validate(); err != nil {
		t.Errorf("greedy result invalid: %v", err)
	}
	if res.Cost.Energy >= res.Baseline.Energy {
		t.Errorf("greedy energy %v not below baseline %v", res.Cost.Energy, res.Baseline.Energy)
	}
	// 4096 SDRAM accesses collapse to one 512B fill: > 90% saving.
	if res.Cost.Energy > 0.2*res.Baseline.Energy {
		t.Errorf("greedy energy %v, expected < 20%% of %v", res.Cost.Energy, res.Baseline.Energy)
	}
	if res.Cost.Cycles >= res.Baseline.Cycles {
		t.Errorf("greedy cycles %d not below baseline %d", res.Cost.Cycles, res.Baseline.Cycles)
	}
}

func TestGreedyRespectsCapacity(t *testing.T) {
	plat := testPlat()
	plat.Layers[0].Capacity = 64 // too small for the 512B table copy
	an := analyze(t, reuseProgram())
	res, err := Search(context.Background(), workspace.FromAnalysis(an), plat, Options{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if !res.Assignment.Fits() {
		t.Error("result does not fit")
	}
	if got := res.Assignment.PeakUsage(0); got > 64 {
		t.Errorf("PeakUsage = %d > 64", got)
	}
}

func TestExactEnginesAgree(t *testing.T) {
	for _, objective := range []Objective{MinEnergy, MinTime} {
		an := analyze(t, reuseProgram())
		opts := Options{}
		opts.Objective = objective
		opts.Engine = Exhaustive
		ex, err := Search(context.Background(), workspace.FromAnalysis(an), testPlat(), opts)
		if err != nil {
			t.Fatalf("exhaustive: %v", err)
		}
		opts.Engine = BranchBound
		bb, err := Search(context.Background(), workspace.FromAnalysis(an), testPlat(), opts)
		if err != nil {
			t.Fatalf("bnb: %v", err)
		}
		if !ex.Complete || !bb.Complete {
			t.Fatalf("exact engines incomplete: ex=%v bb=%v", ex.Complete, bb.Complete)
		}
		exScore := objective.Score(ex.Cost)
		bbScore := objective.Score(bb.Cost)
		if exScore != bbScore {
			t.Errorf("%v: exhaustive %v != bnb %v", objective, exScore, bbScore)
		}
		if bb.States > ex.States {
			t.Errorf("bnb explored more states (%d) than exhaustive (%d)", bb.States, ex.States)
		}
	}
}

func TestGreedyNotBetterThanOptimal(t *testing.T) {
	for _, objective := range []Objective{MinEnergy, MinTime} {
		an := analyze(t, reuseProgram())
		opts := Options{}
		opts.Objective = objective
		gr, err := Search(context.Background(), workspace.FromAnalysis(an), testPlat(), opts)
		if err != nil {
			t.Fatalf("greedy: %v", err)
		}
		opts.Engine = BranchBound
		bb, err := Search(context.Background(), workspace.FromAnalysis(an), testPlat(), opts)
		if err != nil {
			t.Fatalf("bnb: %v", err)
		}
		if objective.Score(gr.Cost) < objective.Score(bb.Cost)-1e-9 {
			t.Errorf("%v: greedy %v beat optimal %v", objective,
				objective.Score(gr.Cost), objective.Score(bb.Cost))
		}
	}
}

func TestGreedyDeterministic(t *testing.T) {
	a1, _ := Search(context.Background(), workspace.FromAnalysis(analyze(t, reuseProgram())), testPlat(), Options{})
	a2, _ := Search(context.Background(), workspace.FromAnalysis(analyze(t, reuseProgram())), testPlat(), Options{})
	if a1.Assignment.String() != a2.Assignment.String() {
		t.Errorf("greedy not deterministic:\n%s\nvs\n%s", a1.Assignment, a2.Assignment)
	}
}

func TestIterCyclesAndBlockBusy(t *testing.T) {
	an := analyze(t, reuseProgram())
	a := New(an, testPlat(), reuse.Slide)
	iter, busy := a.BusyCycles()
	// Inner loop i: 1 read at SDRAM (18) + 1 compute = 19/iter.
	// Outer loop rep: 256 * 19.
	var inner, outer *model.Loop
	outer = an.Program.Blocks[0].Body[0].(*model.Loop)
	inner = outer.Body[0].(*model.Loop)
	if got := iter[inner]; got != 19 {
		t.Errorf("inner iter cycles = %d, want 19", got)
	}
	if got := iter[outer]; got != 256*19 {
		t.Errorf("outer iter cycles = %d, want %d", got, 256*19)
	}
	if busy[0] != 16*256*19 {
		t.Errorf("block busy = %d, want %d", busy[0], 16*256*19)
	}
	// Consistency with the evaluator.
	c := a.Evaluate(EvalOptions{})
	if busy[0] != c.ComputeCycles+c.AccessCycles {
		t.Errorf("busy %d != compute+access %d", busy[0], c.ComputeCycles+c.AccessCycles)
	}
}

func TestExtrasRaisePeak(t *testing.T) {
	an := analyze(t, reuseProgram())
	a := New(an, testPlat(), reuse.Slide)
	ch := an.Chains[0]
	a.Select(ch.ID, 0, 0)
	before := a.PeakUsage(0)
	a.Extras[StreamKey{Chain: ch.ID, Level: 0, Class: 0}] = Extra{Bytes: 100}
	after := a.PeakUsage(0)
	if after != before+100 {
		t.Errorf("peak %d -> %d, want +100", before, after)
	}
}

func TestStreamsME(t *testing.T) {
	p := model.NewProgram("me")
	ref := p.NewInput("ref", 1, 72, 72)
	p.AddBlock("match",
		model.For("y", 8, model.For("x", 8, model.For("ky", 16, model.For("kx", 16,
			model.Load(ref, model.IdxC(8, "y").Plus(model.Idx("ky")), model.IdxC(8, "x").Plus(model.Idx("kx"))),
			model.Work(1))))))
	an := analyze(t, p)
	a := New(an, testPlat(), reuse.Slide)
	a.Select(an.Chains[0].ID, 2, 0)
	streams := a.Streams()
	// Classes: fill(1x256B), y-step(7x256B), x-step(56x128B).
	if len(streams) != 3 {
		t.Fatalf("streams = %d, want 3", len(streams))
	}
	if streams[0].Class != 0 || streams[0].Count != 1 || streams[0].Bytes != 256 {
		t.Errorf("fill stream = %+v", streams[0])
	}
	if streams[2].Count != 56 || streams[2].Bytes != 128 || streams[2].LoopIndex != 1 {
		t.Errorf("x stream = %+v", streams[2])
	}
	for _, st := range streams {
		want := int64(20) + (st.Bytes+3)/4
		if st.BTTime != want {
			t.Errorf("BTTime = %d, want %d", st.BTTime, want)
		}
	}
}

func TestChainOptionsMonotone(t *testing.T) {
	an := analyze(t, reuseProgram())
	plat := testPlat()
	opts := chainOptions(plat, an.Chains[0])
	// Depth 2, one on-chip layer: empty + levels 0,1,2 => 4 options.
	if len(opts) != 4 {
		t.Fatalf("options = %d, want 4", len(opts))
	}
	for _, op := range opts {
		for i := 1; i < len(op.levels); i++ {
			if op.levels[i] <= op.levels[i-1] || op.layers[i] >= op.layers[i-1] {
				t.Errorf("non-monotone option %+v", op)
			}
		}
	}
}

func TestSelectionOrderingAndString(t *testing.T) {
	an := analyze(t, reuseProgram())
	a := New(an, testPlat(), reuse.Slide)
	a.Select(an.Chains[0].ID, 1, 0)
	sels := a.Selections()
	if len(sels) != 1 || sels[0].Level != 1 || sels[0].Layer != 0 {
		t.Errorf("Selections = %+v", sels)
	}
	s := a.String()
	if !strings.Contains(s, "copy") || !strings.Contains(s, "L1") {
		t.Errorf("String() = %s", s)
	}
	if got := a.AccessLayer(an.Chains[0]); got != 0 {
		t.Errorf("AccessLayer = %d, want 0", got)
	}
}

func TestObjectiveAndEngineStrings(t *testing.T) {
	if MinEnergy.String() != "energy" || MinTime.String() != "time" || MinEDP.String() != "edp" {
		t.Error("Objective.String broken")
	}
	if Greedy.String() != "greedy" || BranchBound.String() != "bnb" || Exhaustive.String() != "exhaustive" {
		t.Error("Engine.String broken")
	}
	if Stochastic.String() != "lns" || Portfolio.String() != "portfolio" || Engine("").String() != "greedy" {
		t.Error("Engine.String broken for new engines")
	}
	c := Cost{Energy: 10, Cycles: 20}
	if MinEDP.Score(c) != 200 {
		t.Error("EDP score broken")
	}
}

// TestChainOptionsOneBuffer: chainOptions carves every option out of
// one backing buffer, and must still enumerate exactly the options of
// a per-option recursion, in the same order, over the paper
// applications on two- and three-level platforms. Each option's levels
// and layers are capped at their length, so an append to one option
// reallocates instead of writing into the next option's share.
func TestChainOptionsOneBuffer(t *testing.T) {
	for _, app := range apps.All() {
		an := analyze(t, app.Build(apps.Paper))
		for _, plat := range []*platform.Platform{energy.TwoLevel(app.L1), energy.ThreeLevel(app.L1, 8*app.L1)} {
			for _, ch := range an.Chains {
				got, want := chainOptions(plat, ch), referenceChainOptions(plat, ch)
				if len(got) != len(want) {
					t.Fatalf("%s %s chain %s: %d options, want %d", app.Name, plat.Name, ch.ID, len(got), len(want))
				}
				for oi, op := range got {
					if !slices.Equal(op.levels, want[oi].levels) || !slices.Equal(op.layers, want[oi].layers) {
						t.Fatalf("%s %s chain %s: option %d is %v/%v, want %v/%v",
							app.Name, plat.Name, ch.ID, oi, op.levels, op.layers, want[oi].levels, want[oi].layers)
					}
					if cap(op.levels) != len(op.levels) || cap(op.layers) != len(op.layers) {
						t.Fatalf("%s %s chain %s: option %d has spare capacity", app.Name, plat.Name, ch.ID, oi)
					}
				}
			}
		}
	}
}

// referenceChainOptions is chainOptions with two fresh slices per
// option.
func referenceChainOptions(plat *platform.Platform, ch *reuse.Chain) []option {
	opts := []option{{}}
	var rec func(minLevel, maxLayerExcl int, levels, layers []int)
	rec = func(minLevel, maxLayerExcl int, levels, layers []int) {
		for lv := minLevel; lv <= ch.Depth(); lv++ {
			for _, ly := range plat.OnChipLayers() {
				if ly >= maxLayerExcl || ch.Candidate(lv).Bytes > plat.Layers[ly].Capacity {
					continue
				}
				nl := append(slices.Clone(levels), lv)
				ny := append(slices.Clone(layers), ly)
				opts = append(opts, option{levels: nl, layers: ny})
				rec(lv+1, ly, nl, ny)
			}
		}
	}
	rec(0, len(plat.Layers), nil, nil)
	return opts
}
