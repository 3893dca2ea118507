package sim

import (
	"testing"

	"mhla/internal/assign"
	"mhla/internal/model"
	"mhla/internal/reuse"
)

// scaledProgram is motion estimation with s times the blocks along
// each axis, plus a write of one result per block: the same loop
// structure at every s, a trace growing with s².
func scaledProgram(s int) *model.Program {
	p := model.NewProgram("scaled")
	ref := p.NewInput("ref", 1, 64*s+8, 64*s+8)
	out := p.NewOutput("out", 2, 8*s, 8*s)
	p.AddBlock("match",
		model.For("y", 8*s, model.For("x", 8*s,
			model.For("ky", 16, model.For("kx", 16,
				model.Load(ref, model.IdxC(8, "y").Plus(model.Idx("ky")), model.IdxC(8, "x").Plus(model.Idx("kx"))),
				model.Work(1))),
			model.Store(out, model.Idx("y"), model.Idx("x")))))
	return p
}

// TestTraceAllocsIndependentOfTripCounts: a trace allocates per site,
// per copy and per stream, never per access, strip or copy update, so
// the same program structure with the same selections allocates the
// same at two trip-count scales.
func TestTraceAllocsIndependentOfTripCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	for _, policy := range []reuse.Policy{reuse.Slide, reuse.Refetch} {
		var allocs [2]float64
		for i, s := range []int{1, 4} {
			an, err := reuse.Analyze(scaledProgram(s))
			if err != nil {
				t.Fatal(err)
			}
			plat := threePlat()
			plat.Layers[0].Capacity, plat.Layers[1].Capacity = 1<<30, 1<<30 // capacity is not under test here
			a := assign.New(an, plat, policy)
			for _, ch := range an.Chains {
				if ch.Array.Name == "ref" {
					a.Select(ch.ID, 1, 1) // row band at L2
					a.Select(ch.ID, 2, 0) // window at L1
				} else {
					a.Select(ch.ID, 1, 0) // one output row at L1
				}
			}
			if len(a.Selections()) != 3 {
				t.Fatalf("scale %d: %d selections, want 3", s, len(a.Selections()))
			}
			allocs[i] = testing.AllocsPerRun(5, func() {
				if _, err := Trace(a, Options{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("policy %v: %v allocations at scale 1, %v at scale 4", policy, allocs[0], allocs[1])
		}
	}
}
