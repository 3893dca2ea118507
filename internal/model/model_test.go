package model

import (
	"strings"
	"testing"
)

// buildConv returns a small 2-D convolution-like program used by
// several tests:
//
//	block conv:
//	  for i in 0..H-3 { for j in 0..W-3 { for ki in 0..2 { for kj in 0..2 {
//	    load img[i+ki][j+kj]; compute 2
//	  }}} store out[i][j] }
func buildConv(h, w int) *Program {
	p := NewProgram("conv")
	img := p.NewInput("img", 1, h, w)
	out := p.NewOutput("out", 1, h-2, w-2)
	p.AddBlock("conv",
		For("i", h-2,
			For("j", w-2,
				For("ki", 3,
					For("kj", 3,
						Load(img, Idx("i").Plus(Idx("ki")), Idx("j").Plus(Idx("kj"))),
						Work(2),
					),
				),
				Store(out, Idx("i"), Idx("j")),
			),
		),
	)
	return p
}

func TestArraySizes(t *testing.T) {
	a := &Array{Name: "a", Dims: []int{4, 5, 6}, ElemSize: 2}
	if got := a.Elems(); got != 120 {
		t.Errorf("Elems = %d, want 120", got)
	}
	if got := a.Bytes(); got != 240 {
		t.Errorf("Bytes = %d, want 240", got)
	}
	if got := a.Rank(); got != 3 {
		t.Errorf("Rank = %d, want 3", got)
	}
}

func TestValidateAcceptsConv(t *testing.T) {
	p := buildConv(16, 20)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestAccessEnumeration(t *testing.T) {
	p := buildConv(16, 20)
	refs := p.Accesses()
	if len(refs) != 2 {
		t.Fatalf("got %d access refs, want 2", len(refs))
	}
	load := refs[0]
	if load.Access.Kind != Read || load.Access.Array.Name != "img" {
		t.Errorf("first access = %s of %s, want read of img", load.Access.Kind, load.Access.Array.Name)
	}
	if got := len(load.Nest); got != 4 {
		t.Errorf("load nest depth = %d, want 4", got)
	}
	if got := load.Executions(); got != int64(14*18*3*3) {
		t.Errorf("load executions = %d, want %d", got, 14*18*3*3)
	}
	store := refs[1]
	if got := len(store.Nest); got != 2 {
		t.Errorf("store nest depth = %d, want 2", got)
	}
	if got := store.Executions(); got != int64(14*18) {
		t.Errorf("store executions = %d, want %d", got, 14*18)
	}
	if load.Position == store.Position {
		t.Error("positions are not unique")
	}
}

func TestAccessCountsAndComputeCycles(t *testing.T) {
	p := buildConv(16, 20)
	counts := p.AccessCounts()
	if got := counts["img"].Reads; got != int64(14*18*9) {
		t.Errorf("img reads = %d, want %d", got, 14*18*9)
	}
	if got := counts["out"].Writes; got != int64(14*18) {
		t.Errorf("out writes = %d, want %d", got, 14*18)
	}
	if got := p.TotalAccesses(); got != int64(14*18*9+14*18) {
		t.Errorf("TotalAccesses = %d", got)
	}
	if got := p.ComputeCycles(); got != int64(14*18*9*2) {
		t.Errorf("ComputeCycles = %d, want %d", got, 14*18*9*2)
	}
}

func TestValidateRejections(t *testing.T) {
	// Each case builds a broken program and names the expected error
	// substring.
	cases := []struct {
		name  string
		build func() *Program
		want  string
	}{
		{"no blocks", func() *Program {
			return NewProgram("p")
		}, "no blocks"},
		{"unnamed program", func() *Program {
			p := NewProgram("")
			p.AddBlock("b", Work(1))
			return p
		}, "no name"},
		{"duplicate arrays", func() *Program {
			p := NewProgram("p")
			p.NewArray("a", 1, 4)
			p.NewArray("a", 1, 4)
			p.AddBlock("b", Work(1))
			return p
		}, "duplicate array"},
		{"zero dim", func() *Program {
			p := NewProgram("p")
			p.NewArray("a", 1, 0)
			p.AddBlock("b", Work(1))
			return p
		}, "extent 0"},
		{"zero elem size", func() *Program {
			p := NewProgram("p")
			p.NewArray("a", 0, 4)
			p.AddBlock("b", Work(1))
			return p
		}, "element size 0"},
		{"bad trip", func() *Program {
			p := NewProgram("p")
			p.AddBlock("b", For("i", 0, Work(1)))
			return p
		}, "trip count 0"},
		{"shadowed iterator", func() *Program {
			p := NewProgram("p")
			p.AddBlock("b", For("i", 2, For("i", 2, Work(1))))
			return p
		}, "shadows"},
		{"arity mismatch", func() *Program {
			p := NewProgram("p")
			a := p.NewArray("a", 1, 4, 4)
			p.AddBlock("b", For("i", 2, Load(a, Idx("i"))))
			return p
		}, "index expressions"},
		{"out of scope iterator", func() *Program {
			p := NewProgram("p")
			a := p.NewArray("a", 1, 16)
			p.AddBlock("b", For("i", 2, Load(a, Idx("q"))))
			return p
		}, "out-of-scope"},
		{"out of bounds", func() *Program {
			p := NewProgram("p")
			a := p.NewArray("a", 1, 4)
			p.AddBlock("b", For("i", 8, Load(a, Idx("i"))))
			return p
		}, "bounds"},
		{"negative index", func() *Program {
			p := NewProgram("p")
			a := p.NewArray("a", 1, 4)
			p.AddBlock("b", For("i", 2, Load(a, Idx("i").PlusConst(-1))))
			return p
		}, "bounds"},
		{"unregistered array", func() *Program {
			p := NewProgram("p")
			ghost := &Array{Name: "ghost", Dims: []int{4}, ElemSize: 1}
			p.AddBlock("b", For("i", 2, Load(ghost, Idx("i"))))
			return p
		}, "unregistered"},
		{"unregistered array sharing a registered name", func() *Program {
			p := NewProgram("p")
			p.NewArray("a", 1, 4)
			ghost := &Array{Name: "a", Dims: []int{4}, ElemSize: 1}
			p.AddBlock("b", For("i", 2, Load(ghost, Idx("i"))))
			return p
		}, "unregistered"},
		{"negative compute", func() *Program {
			p := NewProgram("p")
			p.AddBlock("b", Work(-5))
			return p
		}, "negative cycles"},
		{"duplicate blocks", func() *Program {
			p := NewProgram("p")
			p.AddBlock("b", Work(1))
			p.AddBlock("b", Work(1))
			return p
		}, "duplicate block"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.build().Validate()
			if err == nil {
				t.Fatalf("Validate accepted a broken program")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := buildConv(16, 20)
	q := p.Clone()
	if err := q.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	// Mutate the clone and confirm the original is untouched.
	q.Arrays[0].Dims[0] = 999
	q.Blocks[0].Body[0].(*Loop).Trip = 1
	if p.Arrays[0].Dims[0] == 999 {
		t.Error("clone shares array dims")
	}
	if p.Blocks[0].Body[0].(*Loop).Trip == 1 {
		t.Error("clone shares loop nodes")
	}
	// Clone's accesses must point at the clone's arrays.
	for _, ref := range q.Accesses() {
		found := false
		for _, a := range q.Arrays {
			if ref.Access.Array == a {
				found = true
			}
		}
		if !found {
			t.Fatal("clone access points at original array")
		}
	}
}

func TestStringRendering(t *testing.T) {
	p := buildConv(6, 6)
	s := p.String()
	for _, want := range []string{
		"program conv",
		"array img[6][6] x1B (input)",
		"array out[4][4] x1B (output)",
		"block conv:",
		"for i in 0..3 {",
		"load img[i + ki][j + kj]",
		"store out[i][j]",
		"compute 2 cycles",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
}

func TestStats(t *testing.T) {
	p := buildConv(16, 20)
	s := p.Stats()
	if s.Arrays != 2 || s.Blocks != 1 || s.Loops != 4 {
		t.Errorf("Stats = %+v", s)
	}
	if s.MaxDepth != 4 {
		t.Errorf("MaxDepth = %d, want 4", s.MaxDepth)
	}
	if s.Accesses != 2 {
		t.Errorf("static accesses = %d, want 2", s.Accesses)
	}
	if s.AccessesExec != int64(14*18*9+14*18) {
		t.Errorf("dynamic accesses = %d", s.AccessesExec)
	}
	if s.ArrayBytes != int64(16*20+14*18) {
		t.Errorf("ArrayBytes = %d", s.ArrayBytes)
	}
	if s.ComputeCycles != int64(14*18*9*2) {
		t.Errorf("ComputeCycles = %d", s.ComputeCycles)
	}
}

func TestAccessKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("AccessKind.String broken")
	}
	if AccessKind(9).String() != "AccessKind(9)" {
		t.Error("unknown kind formatting broken")
	}
}

func TestMultiBlockProgram(t *testing.T) {
	p := NewProgram("two-phase")
	a := p.NewInput("a", 2, 64)
	b := p.NewArray("b", 2, 64)
	c := p.NewOutput("c", 2, 64)
	p.AddBlock("phase1", For("i", 64, Load(a, Idx("i")), Store(b, Idx("i")), Work(3)))
	p.AddBlock("phase2", For("i", 64, Load(b, Idx("i")), Store(c, Idx("i")), Work(5)))
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	refs := p.Accesses()
	if len(refs) != 4 {
		t.Fatalf("got %d refs, want 4", len(refs))
	}
	if refs[2].BlockIndex != 1 || refs[2].Block.Name != "phase2" {
		t.Errorf("third access block = %d %q", refs[2].BlockIndex, refs[2].Block.Name)
	}
	if got := p.ComputeCycles(); got != 64*3+64*5 {
		t.Errorf("ComputeCycles = %d", got)
	}
}
