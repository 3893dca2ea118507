package assign

import (
	"strings"
	"testing"

	"mhla/internal/model"
	"mhla/internal/reuse"
)

func TestExplainDecompositionExact(t *testing.T) {
	an := analyze(t, reuseProgram())
	a := New(an, testPlat(), reuse.Slide)
	a.Select(an.Chains[0].ID, 1, 0)
	cost := a.Evaluate(EvalOptions{})
	var cyc int64
	var e float64
	for _, r := range a.Explain() {
		cyc += r.Cycles
		e += r.EnergyPJ
	}
	cyc += an.Program.ComputeCycles()
	if cyc != cost.Cycles {
		t.Errorf("explained cycles %d != evaluated %d", cyc, cost.Cycles)
	}
	if diff := e - cost.Energy; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("explained energy %v != evaluated %v", e, cost.Energy)
	}
}

func TestExplainOrderingAndContent(t *testing.T) {
	an := analyze(t, reuseProgram())
	a := New(an, testPlat(), reuse.Slide)
	a.Select(an.Chains[0].ID, 1, 0)
	reports := a.Explain()
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	r := reports[0]
	if r.AccessLayer != "L1" {
		t.Errorf("access layer = %q", r.AccessLayer)
	}
	if len(r.Copies) != 1 || !strings.Contains(r.Copies[0], "1@L1") {
		t.Errorf("copies = %v", r.Copies)
	}
	if r.TransferBytes == 0 {
		t.Error("no transfer bytes reported")
	}
	s := a.ExplainString()
	if !strings.Contains(s, "chain") || !strings.Contains(s, "L1") {
		t.Errorf("ExplainString:\n%s", s)
	}
}

func TestExplainSortedByEnergy(t *testing.T) {
	// Two chains with very different access counts: the heavier one
	// must come first.
	p := model.NewProgram("two")
	hot := p.NewInput("hot", 2, 64)
	cold := p.NewInput("cold", 2, 64)
	p.AddBlock("b",
		model.For("rep", 32, model.For("i", 64, model.Load(hot, model.Idx("i")))),
		model.For("i", 64, model.Load(cold, model.Idx("i"))),
	)
	an := analyze(t, p)
	a := New(an, testPlat(), reuse.Slide)
	reports := a.Explain()
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	if !strings.Contains(reports[0].Chain, "hot") {
		t.Errorf("first report = %q, want the hot chain", reports[0].Chain)
	}
	if reports[0].EnergyPJ <= reports[1].EnergyPJ {
		t.Error("reports not sorted by energy")
	}
}
