package transform

import (
	"context"
	"strings"
	"testing"

	"mhla/internal/assign"
	"mhla/internal/core"
	"mhla/internal/energy"
	"mhla/internal/model"
	"mhla/internal/reuse"
	"mhla/internal/sim"
	"mhla/internal/workspace"
)

// matmul builds C = A x B with the column-major walk of B that makes
// untiled reuse poor.
func matmul(n int) *model.Program {
	p := model.NewProgram("matmul")
	a := p.NewInput("a", 2, n, n)
	b := p.NewInput("b", 2, n, n)
	c := p.NewOutput("c", 2, n, n)
	p.AddBlock("mm",
		model.For("i", n,
			model.For("j", n,
				model.For("k", n,
					model.Load(a, model.Idx("i"), model.Idx("k")),
					model.Load(b, model.Idx("k"), model.Idx("j")),
					model.Work(2),
				),
				model.Store(c, model.Idx("i"), model.Idx("j")),
			)))
	return p
}

func TestTilePreservesAccessCounts(t *testing.T) {
	p := matmul(32)
	q, err := Tile(p, "mm", "j", 8)
	if err != nil {
		t.Fatalf("Tile: %v", err)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("tiled invalid: %v", err)
	}
	pc, qc := p.AccessCounts(), q.AccessCounts()
	for name, c := range pc {
		if qc[name] != c {
			t.Errorf("%s counts changed: %+v -> %+v", name, c, qc[name])
		}
	}
	if p.ComputeCycles() != q.ComputeCycles() {
		t.Error("compute cycles changed")
	}
	// The input is untouched.
	if strings.Contains(p.String(), "j_o") {
		t.Error("Tile mutated its input")
	}
	if !strings.Contains(q.String(), "for j_o in 0..3") || !strings.Contains(q.String(), "for j_i in 0..7") {
		t.Errorf("tiled structure wrong:\n%s", q)
	}
}

func TestTilePreservesTraceCounts(t *testing.T) {
	// The tiled program must touch exactly the same elements: compare
	// baseline trace layer counts.
	p := matmul(16)
	q, err := Tile(p, "mm", "k", 4)
	if err != nil {
		t.Fatal(err)
	}
	plat := energy.TwoLevel(1024)
	for _, prog := range []*model.Program{p, q} {
		an, err := reuse.Analyze(prog)
		if err != nil {
			t.Fatal(err)
		}
		asn := assign.New(an, plat, reuse.Slide)
		tr, err := sim.Trace(asn, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tr.LayerAccesses[1] != prog.TotalAccesses() {
			t.Errorf("trace accesses %d != %d", tr.LayerAccesses[1], prog.TotalAccesses())
		}
	}
}

func TestTileAndInterchangeImproveMatmulMHLA(t *testing.T) {
	// The classic blocking sequence: tile j, then hoist the tile loop
	// above i. The B strip (64x8) then stays live across the whole i
	// sweep — a copy candidate the untiled nest simply does not have.
	// MHLA on the transformed code must beat MHLA on the original
	// (the DTSE motivation for running transformations before MHLA).
	p := matmul(64)
	tiled, err := Tile(p, "mm", "j", 8)
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := Interchange(tiled, "mm", "i")
	if err != nil {
		t.Fatal(err)
	}
	plat := int64(4096)
	ws1, err := workspace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.Run(context.Background(), ws1, core.Config{Platform: energy.TwoLevel(plat)})
	if err != nil {
		t.Fatal(err)
	}
	ws2, err := workspace.Compile(blocked)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.Run(context.Background(), ws2, core.Config{Platform: energy.TwoLevel(plat)})
	if err != nil {
		t.Fatal(err)
	}
	if r2.MHLA.Energy >= r1.MHLA.Energy {
		t.Errorf("blocking did not improve energy: %v -> %v", r1.MHLA.Energy, r2.MHLA.Energy)
	}
	if r2.MHLA.Cycles >= r1.MHLA.Cycles {
		t.Errorf("blocking did not improve cycles: %d -> %d", r1.MHLA.Cycles, r2.MHLA.Cycles)
	}
	t.Logf("untiled %.0f pJ / %d cycles, blocked %.0f pJ / %d cycles (%.1fx energy)",
		r1.MHLA.Energy, r1.MHLA.Cycles, r2.MHLA.Energy, r2.MHLA.Cycles,
		r1.MHLA.Energy/r2.MHLA.Energy)
}

func TestTileErrors(t *testing.T) {
	p := matmul(32)
	cases := []struct {
		block, v string
		factor   int
		want     string
	}{
		{"nope", "j", 8, "no block"},
		{"mm", "zz", 8, "no loop"},
		{"mm", "j", 5, "does not divide"},
		{"mm", "j", 0, "tile factor"},
	}
	for _, c := range cases {
		if _, err := Tile(p, c.block, c.v, c.factor); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Tile(%s,%s,%d) err = %v, want %q", c.block, c.v, c.factor, err, c.want)
		}
	}
}

func TestInterchange(t *testing.T) {
	p := matmul(16)
	q, err := Interchange(p, "mm", "i")
	if err != nil {
		t.Fatalf("Interchange: %v", err)
	}
	// j is now outermost.
	s := q.String()
	iIdx := strings.Index(s, "for i in")
	jIdx := strings.Index(s, "for j in")
	if jIdx > iIdx {
		t.Errorf("interchange did not swap:\n%s", s)
	}
	// Counts unchanged.
	pc, qc := p.AccessCounts(), q.AccessCounts()
	for name, c := range pc {
		if qc[name] != c {
			t.Errorf("%s counts changed", name)
		}
	}
}

func TestInterchangeErrors(t *testing.T) {
	p := matmul(16)
	// j's body contains the k loop AND the store: not perfect.
	if _, err := Interchange(p, "mm", "j"); err == nil || !strings.Contains(err.Error(), "not perfectly nested") {
		t.Errorf("err = %v", err)
	}
	if _, err := Interchange(p, "mm", "zz"); err == nil {
		t.Error("accepted unknown loop")
	}
	// Innermost loop's body is not a loop.
	if _, err := Interchange(p, "mm", "k"); err == nil || !strings.Contains(err.Error(), "not perfectly nested") {
		t.Errorf("err = %v", err)
	}
}

func TestDistribute(t *testing.T) {
	p := model.NewProgram("two-stmt")
	a := p.NewInput("a", 2, 64)
	b := p.NewOutput("b", 2, 64)
	c := p.NewOutput("c", 2, 64)
	p.AddBlock("fuse",
		model.For("i", 64,
			model.Store(b, model.Idx("i")),
			model.Store(c, model.Idx("i")),
		))
	_ = a
	q, err := Distribute(p, "fuse", "i")
	if err != nil {
		t.Fatalf("Distribute: %v", err)
	}
	s := q.String()
	if !strings.Contains(s, "for i_0 in 0..63") || !strings.Contains(s, "for i_1 in 0..63") {
		t.Errorf("distributed structure wrong:\n%s", s)
	}
	pc, qc := p.AccessCounts(), q.AccessCounts()
	for name := range pc {
		if qc[name] != pc[name] {
			t.Errorf("%s counts changed", name)
		}
	}
}

func TestDistributeErrors(t *testing.T) {
	p := matmul(16)
	// k loop has 3 body nodes -> distributable; i loop has 1 -> not.
	if _, err := Distribute(p, "mm", "i"); err == nil || !strings.Contains(err.Error(), "nothing to distribute") {
		t.Errorf("err = %v", err)
	}
	if _, err := Distribute(p, "zz", "i"); err == nil {
		t.Error("accepted unknown block")
	}
}

func TestTileNestedLoopDeep(t *testing.T) {
	// Tiling an inner loop (k, below i and j) must keep the nest
	// valid and preserve counts.
	p := matmul(32)
	q, err := Tile(p, "mm", "k", 8)
	if err != nil {
		t.Fatal(err)
	}
	if q.AccessCounts()["b"] != p.AccessCounts()["b"] {
		t.Error("counts changed")
	}
	// Double tiling: tile the new outer loop again.
	q2, err := Tile(q, "mm", "k_o", 2)
	if err != nil {
		t.Fatal(err)
	}
	if q2.AccessCounts()["b"] != p.AccessCounts()["b"] {
		t.Error("double-tiled counts changed")
	}
}
