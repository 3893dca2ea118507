package assign

import (
	"fmt"
	"sort"
	"strings"
)

// ChainReport is the evaluated contribution of one reuse chain under
// an assignment, for diagnostics and reports.
type ChainReport struct {
	// Chain is the chain ID.
	Chain string
	// Accesses is the CPU word accesses the chain performs.
	Accesses int64
	// AccessLayer names the layer the CPU accesses hit.
	AccessLayer string
	// Copies describes the selected copies ("level@layer(bytes)").
	Copies []string
	// TransferBytes is the total bytes its streams move.
	TransferBytes int64
	// Cycles and EnergyPJ are the chain's evaluated contribution
	// (accesses plus transfers at full stall).
	Cycles   int64
	EnergyPJ float64
}

// Explain decomposes the assignment cost per chain, ordered by
// descending energy contribution. The decomposition is exact: the
// contributions plus the program compute cycles and the array init
// transfers add up to Evaluate's totals (asserted by tests).
func (a *Assignment) Explain() []ChainReport {
	moved := make(map[string]int64)
	for _, st := range a.Streams() {
		moved[st.ChainID] += st.Count * st.Bytes
	}
	var out []ChainReport
	for _, ch := range a.Analysis.Chains {
		var lv, ly []int
		if ca := a.Chains[ch.ID]; ca != nil {
			lv, ly = ca.Levels, ca.Layers
		}
		c := chainContrib(a.Platform, a.Policy, ch, a.ArrayHome[ch.Array.Name], lv, ly)
		rep := ChainReport{
			Chain:         ch.ID,
			Accesses:      ch.AccessesPerExecution(),
			AccessLayer:   a.Platform.Layers[a.AccessLayer(ch)].Name,
			Cycles:        c.cycles,
			EnergyPJ:      c.energy,
			TransferBytes: moved[ch.ID],
		}
		for i, l := range lv {
			cand := ch.Candidate(l)
			rep.Copies = append(rep.Copies,
				fmt.Sprintf("%d@%s(%dB)", l, a.Platform.Layers[ly[i]].Name, cand.Bytes))
		}
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EnergyPJ != out[j].EnergyPJ {
			return out[i].EnergyPJ > out[j].EnergyPJ
		}
		return out[i].Chain < out[j].Chain
	})
	return out
}

// ExplainString renders the per-chain breakdown as a table.
func (a *Assignment) ExplainString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %12s %-8s %12s %14s %14s  %s\n",
		"chain", "accesses", "hits", "moved(B)", "cycles", "energy(pJ)", "copies")
	for _, r := range a.Explain() {
		fmt.Fprintf(&sb, "%-28s %12d %-8s %12d %14d %14.0f  %s\n",
			r.Chain, r.Accesses, r.AccessLayer, r.TransferBytes, r.Cycles, r.EnergyPJ,
			strings.Join(r.Copies, " "))
	}
	return sb.String()
}
