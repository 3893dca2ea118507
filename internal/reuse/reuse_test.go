package reuse

import (
	"strings"
	"testing"

	"mhla/internal/model"
)

// buildME returns a motion-estimation-like kernel with a sliding
// search window:
//
//	for y in 0..7 { for x in 0..7 { for ky in 0..15 { for kx in 0..15 {
//	  load ref[8*y+ky][8*x+kx]
//	}}}}
func buildME() *model.Program {
	p := model.NewProgram("me-like")
	ref := p.NewInput("ref", 1, 72, 72)
	p.AddBlock("match",
		model.For("y", 8,
			model.For("x", 8,
				model.For("ky", 16,
					model.For("kx", 16,
						model.Load(ref,
							model.IdxC(8, "y").Plus(model.Idx("ky")),
							model.IdxC(8, "x").Plus(model.Idx("kx"))),
						model.Work(1),
					),
				),
			),
		),
	)
	return p
}

func TestAnalyzeME(t *testing.T) {
	an, err := Analyze(buildME())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(an.Chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(an.Chains))
	}
	ch := an.Chains[0]
	if ch.Depth() != 4 || len(ch.Levels) != 5 {
		t.Fatalf("depth = %d, levels = %d", ch.Depth(), len(ch.Levels))
	}
	if got := ch.AccessesPerExecution(); got != 8*8*16*16 {
		t.Errorf("accesses = %d, want %d", got, 8*8*16*16)
	}

	// Level 0: whole footprint, filled once.
	l0 := ch.Candidate(0)
	if l0.Extents[0] != 72 || l0.Extents[1] != 72 {
		t.Errorf("level 0 extents = %v, want [72 72]", l0.Extents)
	}
	if l0.Updates != 1 {
		t.Errorf("level 0 updates = %d, want 1", l0.Updates)
	}
	if got := l0.TotalElems(Slide); got != 72*72 {
		t.Errorf("level 0 slide volume = %d, want %d", got, 72*72)
	}

	// Level 1: y fixed. Box 16x72, 8 updates, vertical slide by 8.
	l1 := ch.Candidate(1)
	if l1.Extents[0] != 16 || l1.Extents[1] != 72 {
		t.Errorf("level 1 extents = %v, want [16 72]", l1.Extents)
	}
	if l1.Updates != 8 {
		t.Errorf("level 1 updates = %d, want 8", l1.Updates)
	}
	if got := l1.TotalElems(Slide); got != 1152+7*576 {
		t.Errorf("level 1 slide volume = %d, want %d", got, 1152+7*576)
	}
	if got := l1.TotalElems(Refetch); got != 8*1152 {
		t.Errorf("level 1 refetch volume = %d, want %d", got, 8*1152)
	}

	// Level 2: y,x fixed. Box 16x16, 64 updates; steady slide moves 8
	// columns = 128 elems; a y-step (x wrapping back) refetches all.
	l2 := ch.Candidate(2)
	if l2.Extents[0] != 16 || l2.Extents[1] != 16 {
		t.Errorf("level 2 extents = %v, want [16 16]", l2.Extents)
	}
	if l2.Updates != 64 {
		t.Errorf("level 2 updates = %d, want 64", l2.Updates)
	}
	if got := l2.TotalElems(Slide); got != 256+7*256+56*128 {
		t.Errorf("level 2 slide volume = %d, want %d", got, 256+7*256+56*128)
	}
	if got := l2.SteadyElems(Slide); got != 128 {
		t.Errorf("level 2 steady slide = %d, want 128", got)
	}
	if got := l2.SteadyElems(Refetch); got != 256 {
		t.Errorf("level 2 steady refetch = %d, want 256", got)
	}

	// Level 4: single element, updated every iteration.
	l4 := ch.Candidate(4)
	if l4.Elems != 1 {
		t.Errorf("level 4 elems = %d, want 1", l4.Elems)
	}
	if l4.Updates != 8*8*16*16 {
		t.Errorf("level 4 updates = %d", l4.Updates)
	}
}

func TestUpdateClassesME(t *testing.T) {
	an, _ := Analyze(buildME())
	l2 := an.Chains[0].Candidate(2)
	if len(l2.Classes) != 3 {
		t.Fatalf("classes = %d, want 3 (fill, y, x)", len(l2.Classes))
	}
	fill, yc, xc := l2.Classes[0], l2.Classes[1], l2.Classes[2]
	if fill.LoopIndex != -1 || fill.Count != 1 || fill.NewElems != 256 {
		t.Errorf("fill class = %+v", fill)
	}
	if yc.LoopIndex != 0 || yc.Count != 7 || yc.NewElems != 256 {
		t.Errorf("y class = %+v", yc)
	}
	if xc.LoopIndex != 1 || xc.Count != 56 || xc.NewElems != 128 {
		t.Errorf("x class = %+v", xc)
	}
	// Class counts must sum to the update count.
	var n int64
	for _, c := range l2.Classes {
		n += c.Count
	}
	if n != l2.Updates {
		t.Errorf("class counts sum to %d, updates = %d", n, l2.Updates)
	}
}

func TestUpdateBytes(t *testing.T) {
	an, _ := Analyze(buildME())
	l2 := an.Chains[0].Candidate(2)
	if got := l2.UpdateBytes(2, Slide); got != 128 {
		t.Errorf("UpdateBytes(x,slide) = %d, want 128", got)
	}
	if got := l2.UpdateBytes(2, Refetch); got != 256 {
		t.Errorf("UpdateBytes(x,refetch) = %d, want 256", got)
	}
}

// TestLoopInvariantAccess checks that a loop not appearing in the
// index expressions yields zero slide traffic at the level below it.
func TestLoopInvariantAccess(t *testing.T) {
	p := model.NewProgram("invariant")
	tbl := p.NewInput("tbl", 2, 64)
	p.AddBlock("scan",
		model.For("rep", 10,
			model.For("i", 64,
				model.Load(tbl, model.Idx("i")),
			),
		),
	)
	an, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	ch := an.Chains[0]
	// Level 1 (rep fixed): the whole table, re-read every rep.
	l1 := ch.Candidate(1)
	if l1.Elems != 64 || l1.Updates != 10 {
		t.Fatalf("level1 = %+v", l1)
	}
	// Slide: after the first fill nothing new arrives.
	if got := l1.TotalElems(Slide); got != 64 {
		t.Errorf("slide volume = %d, want 64", got)
	}
	if got := l1.TotalElems(Refetch); got != 640 {
		t.Errorf("refetch volume = %d, want 640", got)
	}
}

func TestGroupingSharedChain(t *testing.T) {
	// Three taps a[i-1+1], a[i+1], a[i+1+1] (shifted in-bounds): same
	// coefficients, different constants -> one chain with spread 2.
	p := model.NewProgram("fir")
	a := p.NewInput("a", 2, 66)
	out := p.NewOutput("out", 2, 64)
	p.AddBlock("fir",
		model.For("i", 64,
			model.Load(a, model.Idx("i")),
			model.Load(a, model.Idx("i").PlusConst(1)),
			model.Load(a, model.Idx("i").PlusConst(2)),
			model.Store(out, model.Idx("i")),
		),
	)
	an, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(an.Chains) != 2 {
		t.Fatalf("chains = %d, want 2 (grouped loads + store)", len(an.Chains))
	}
	loads := chainsWhere(an, func(ch *Chain) bool { return ch.Array.Name == "a" })[0]
	if len(loads.Accesses) != 3 {
		t.Errorf("grouped accesses = %d, want 3", len(loads.Accesses))
	}
	// Level 1: box = 3 wide (constant spread), sliding by 1 each
	// iteration.
	l1 := loads.Candidate(1)
	if l1.Extents[0] != 3 {
		t.Errorf("level 1 extent = %v, want [3]", l1.Extents)
	}
	if got := l1.TotalElems(Slide); got != 3+63*1 {
		t.Errorf("slide volume = %d, want 66", got)
	}
	// Level 0 covers the whole used range: 64+2.
	if got := loads.Candidate(0).Extents[0]; got != 66 {
		t.Errorf("level 0 extent = %d, want 66", got)
	}
}

func TestGroupingSeparatesCoefficients(t *testing.T) {
	// a[i] and a[2*i]: different coefficient signatures -> separate
	// chains.
	p := model.NewProgram("strides")
	a := p.NewInput("a", 2, 128)
	p.AddBlock("b",
		model.For("i", 64,
			model.Load(a, model.Idx("i")),
			model.Load(a, model.IdxC(2, "i")),
		),
	)
	an, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(an.Chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(an.Chains))
	}
}

func TestGroupingSeparatesKinds(t *testing.T) {
	// Read and write of the same array never share a chain.
	p := model.NewProgram("rw")
	a := p.NewInput("a", 2, 64)
	p.AddBlock("b",
		model.For("i", 64,
			model.Load(a, model.Idx("i")),
			model.Store(a, model.Idx("i")),
		),
	)
	an, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(an.Chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(an.Chains))
	}
	if an.Chains[0].Kind == an.Chains[1].Kind {
		t.Error("chains share a kind")
	}
}

func TestChainIDsDeterministic(t *testing.T) {
	a1, _ := Analyze(buildME())
	a2, _ := Analyze(buildME())
	for i := range a1.Chains {
		if a1.Chains[i].ID != a2.Chains[i].ID {
			t.Errorf("chain %d IDs differ: %q vs %q", i, a1.Chains[i].ID, a2.Chains[i].ID)
		}
	}
	if !strings.Contains(a1.Chains[0].ID, "match/ref/read") {
		t.Errorf("chain ID = %q", a1.Chains[0].ID)
	}
}

// chainsWhere returns the chains of an that keep accepts, in order.
func chainsWhere(an *Analysis, keep func(*Chain) bool) []*Chain {
	var out []*Chain
	for _, ch := range an.Chains {
		if keep(ch) {
			out = append(out, ch)
		}
	}
	return out
}

func TestChainsInBlock(t *testing.T) {
	p := model.NewProgram("two")
	a := p.NewInput("a", 2, 64)
	b := p.NewArray("b", 2, 64)
	p.AddBlock("b0", model.For("i", 64, model.Load(a, model.Idx("i")), model.Store(b, model.Idx("i"))))
	p.AddBlock("b1", model.For("i", 64, model.Load(b, model.Idx("i"))))
	an, err := Analyze(p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got := len(chainsWhere(an, func(ch *Chain) bool { return ch.BlockIndex == 0 })); got != 2 {
		t.Errorf("block 0 chains = %d, want 2", got)
	}
	if got := len(chainsWhere(an, func(ch *Chain) bool { return ch.BlockIndex == 1 })); got != 1 {
		t.Errorf("block 1 chains = %d, want 1", got)
	}
	if got := len(chainsWhere(an, func(ch *Chain) bool { return ch.Array.Name == "b" })); got != 2 {
		t.Errorf("array b chains = %d, want 2", got)
	}
}

func TestAnalyzeRejectsInvalidProgram(t *testing.T) {
	p := model.NewProgram("bad")
	a := p.NewArray("a", 1, 4)
	p.AddBlock("b", model.For("i", 100, model.Load(a, model.Idx("i"))))
	if _, err := Analyze(p); err == nil {
		t.Fatal("Analyze accepted an invalid program")
	}
}

func TestPolicyString(t *testing.T) {
	if Slide.String() != "slide" || Refetch.String() != "refetch" {
		t.Error("Policy.String broken")
	}
	if Policy(7).String() != "Policy(7)" {
		t.Error("unknown policy formatting broken")
	}
}

func TestCandidateString(t *testing.T) {
	an, _ := Analyze(buildME())
	s := an.Chains[0].Candidate(2).String()
	if !strings.Contains(s, "box=16x16") || !strings.Contains(s, "updates=64") {
		t.Errorf("Candidate.String = %q", s)
	}
}
