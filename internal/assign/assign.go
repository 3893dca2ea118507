// Package assign implements the first MHLA step: memory hierarchy
// layer assignment and allocation. It decides, for every array, the
// layer it lives on, and for every reuse chain, which copy candidates
// are instantiated and on which layers, subject to the layer capacity
// constraints computed by the in-place (lifetime-aware) estimator.
//
// The package also owns the shared cost model (eval.go): given an
// assignment and optionally per-stream hidden cycles (produced by the
// time-extension step, internal/te), it computes execution cycles and
// energy. The search engines (greedy steepest descent as in the MHLA
// tool, plus exhaustive and branch-and-bound reference engines) are in
// greedy.go and bnb.go.
package assign

import (
	"fmt"
	"sort"

	"mhla/internal/lifetime"
	"mhla/internal/platform"
	"mhla/internal/reuse"
	"mhla/internal/workspace"
)

// StreamKey identifies one block-transfer stream: all transfers of one
// update class of one selected copy candidate.
type StreamKey struct {
	// Chain is the reuse chain ID.
	Chain string
	// Level is the copy-candidate level within the chain.
	Level int
	// Class is the index into Candidate.Classes (0 = initial fill).
	Class int
}

// String renders the key for diagnostics.
func (k StreamKey) String() string {
	return fmt.Sprintf("%s@%d/c%d", k.Chain, k.Level, k.Class)
}

// Extra is additional space a time-extended stream occupies: the
// in-flight prefetch buffer, and for initial-fill streams hoisted
// across a block boundary, the number of blocks the copy becomes live
// earlier.
type Extra struct {
	Bytes       int64
	HoistBlocks int
}

// ChainAssign is the selection made for one reuse chain: the chosen
// copy-candidate levels (ascending) and their layers (strictly
// decreasing layer index, i.e. moving closer to the processor).
type ChainAssign struct {
	Chain  *reuse.Chain
	Levels []int
	Layers []int
}

func (ca *ChainAssign) clone() *ChainAssign {
	return &ChainAssign{
		Chain:  ca.Chain,
		Levels: append([]int(nil), ca.Levels...),
		Layers: append([]int(nil), ca.Layers...),
	}
}

// Assignment is a complete layer-assignment decision for a program on
// a platform. Assignments must be built with New or NewInWorkspace
// (or cloned from one) — they carry unexported compile-once state, so
// a struct literal is not a usable assignment.
type Assignment struct {
	// Analysis is the reuse analysis the assignment selects from.
	Analysis *reuse.Analysis
	// Platform is the target architecture.
	Platform *platform.Platform
	// Policy is the transfer policy copies use (Slide by default).
	Policy reuse.Policy
	// InPlace selects lifetime-aware capacity estimation.
	InPlace bool
	// ArrayHome maps every array name to its home layer index. The
	// default home is the background layer.
	ArrayHome map[string]int
	// Chains maps chain IDs to their selection; chains without an
	// entry have no copies.
	Chains map[string]*ChainAssign
	// Extras holds per-stream space added by the time-extension step.
	Extras map[StreamKey]Extra

	// ws is the compile-once program-side analysis the assignment
	// reads instead of recomputing: array lifetime spans and objects,
	// candidate lifetime objects, the chain index, writer blocks and
	// block compute cycles. It is immutable and shared by Clone.
	ws *workspace.Workspace
}

// New returns the out-of-the-box assignment: every array in background
// memory and no copies. This is the paper's "original code" baseline.
// It compiles a workspace for the analysis; callers holding one
// already (the engines, the flow layers) use NewInWorkspace so the
// program-side tables are built exactly once.
func New(an *reuse.Analysis, plat *platform.Platform, policy reuse.Policy) *Assignment {
	return NewInWorkspace(workspace.FromAnalysis(an), plat, policy)
}

// NewInWorkspace returns the out-of-the-box assignment over a
// precompiled workspace.
func NewInWorkspace(ws *workspace.Workspace, plat *platform.Platform, policy reuse.Policy) *Assignment {
	a := &Assignment{
		Analysis:  ws.Analysis,
		Platform:  plat,
		Policy:    policy,
		InPlace:   true,
		ArrayHome: make(map[string]int, len(ws.Arrays)),
		Chains:    make(map[string]*ChainAssign),
		Extras:    make(map[StreamKey]Extra),
		ws:        ws,
	}
	bg := plat.Background()
	for _, arr := range ws.Arrays {
		a.ArrayHome[arr.Name] = bg
	}
	return a
}

// Workspace returns the compile-once program-side analysis backing
// the assignment.
func (a *Assignment) Workspace() *workspace.Workspace { return a.ws }

// Clone returns a deep copy sharing the immutable analysis/platform.
func (a *Assignment) Clone() *Assignment {
	c := &Assignment{
		Analysis:  a.Analysis,
		Platform:  a.Platform,
		Policy:    a.Policy,
		InPlace:   a.InPlace,
		ArrayHome: make(map[string]int, len(a.ArrayHome)),
		Chains:    make(map[string]*ChainAssign, len(a.Chains)),
		Extras:    make(map[StreamKey]Extra, len(a.Extras)),
		ws:        a.ws,
	}
	for k, v := range a.ArrayHome {
		c.ArrayHome[k] = v
	}
	for k, v := range a.Chains {
		c.Chains[k] = v.clone()
	}
	for k, v := range a.Extras {
		c.Extras[k] = v
	}
	return c
}

// chain returns the chain with the given ID. Every Assignment is
// built by New (or cloned from one), so the index is always present.
func (a *Assignment) chain(id string) *reuse.Chain {
	return a.ws.ChainByID[id]
}

// Select adds copy candidate (chainID, level) at the given layer,
// keeping the chain's levels ascending. It does not check validity;
// use Validate or Fits afterwards, or the search engines which only
// generate valid moves.
func (a *Assignment) Select(chainID string, level, layer int) {
	ca := a.Chains[chainID]
	if ca == nil {
		ca = &ChainAssign{Chain: a.chain(chainID)}
		a.Chains[chainID] = ca
	}
	pos := sort.SearchInts(ca.Levels, level)
	ca.Levels = append(ca.Levels, 0)
	copy(ca.Levels[pos+1:], ca.Levels[pos:])
	ca.Levels[pos] = level
	ca.Layers = append(ca.Layers, 0)
	copy(ca.Layers[pos+1:], ca.Layers[pos:])
	ca.Layers[pos] = layer
}

// SetHome moves an array's home layer.
func (a *Assignment) SetHome(array string, layer int) { a.ArrayHome[array] = layer }

// chainIDs returns all chain IDs with a selection, sorted.
func (a *Assignment) chainIDs() []string {
	ids := make([]string, 0, len(a.Chains))
	for id := range a.Chains {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Validate checks the structural invariants of the assignment:
// known arrays and chains, layers in range, selected levels strictly
// ascending with strictly descending layer indices, the first selected
// layer closer to the CPU than the array home, and copies never placed
// on the background layer.
func (a *Assignment) Validate() error {
	if a == nil {
		return fmt.Errorf("assign: nil assignment")
	}
	nlayers := len(a.Platform.Layers)
	bg := a.Platform.Background()
	for _, arr := range a.Analysis.Program.Arrays {
		home, ok := a.ArrayHome[arr.Name]
		if !ok {
			return fmt.Errorf("assign: array %q has no home layer", arr.Name)
		}
		if home < 0 || home >= nlayers {
			return fmt.Errorf("assign: array %q home layer %d out of range", arr.Name, home)
		}
		if home != bg && arr.Bytes() > a.Platform.Layers[home].Capacity {
			return fmt.Errorf("assign: array %q (%dB) cannot fit layer %q",
				arr.Name, arr.Bytes(), a.Platform.Layers[home].Name)
		}
	}
	for _, id := range a.chainIDs() {
		ca := a.Chains[id]
		ch := a.chain(id)
		if ch == nil {
			return fmt.Errorf("assign: selection for unknown chain %q", id)
		}
		if ca.Chain != ch {
			return fmt.Errorf("assign: chain %q selection points at a foreign chain", id)
		}
		if len(ca.Levels) != len(ca.Layers) {
			return fmt.Errorf("assign: chain %q has %d levels but %d layers", id, len(ca.Levels), len(ca.Layers))
		}
		prevLayer := a.ArrayHome[ch.Array.Name]
		prevLevel := -1
		for i, lv := range ca.Levels {
			if lv < 0 || lv > ch.Depth() {
				return fmt.Errorf("assign: chain %q level %d out of range", id, lv)
			}
			if lv <= prevLevel {
				return fmt.Errorf("assign: chain %q levels not strictly ascending", id)
			}
			ly := ca.Layers[i]
			if ly < 0 || ly >= nlayers {
				return fmt.Errorf("assign: chain %q layer %d out of range", id, ly)
			}
			if ly == bg {
				return fmt.Errorf("assign: chain %q places a copy on the background layer", id)
			}
			if ly >= prevLayer {
				return fmt.Errorf("assign: chain %q layer %d not closer to CPU than parent layer %d", id, ly, prevLayer)
			}
			prevLevel, prevLayer = lv, ly
		}
	}
	return nil
}

// Objects returns the space consumers placed on the given layer, in
// deterministic order: arrays homed there plus selected copies (with
// any time-extension extras). The array spans and the base candidate
// objects come precomputed from the workspace.
func (a *Assignment) Objects(layer int) []lifetime.Object {
	var objs []lifetime.Object
	for i, arr := range a.ws.Arrays {
		if a.ArrayHome[arr.Name] != layer || !a.ws.ArrayUsed[i] {
			continue
		}
		objs = append(objs, a.ws.ArrayObjs[i])
	}
	for _, id := range a.chainIDs() {
		ca := a.Chains[id]
		for i, lv := range ca.Levels {
			if ca.Layers[i] == layer {
				objs = append(objs, a.CopyObject(id, lv))
			}
		}
	}
	return objs
}

// CopyObject returns the lifetime object of copy candidate (chain,
// level) as Objects places it: the candidate's bytes plus the
// time-extension extras of all its streams, live from the earliest
// hoisted block to the chain's block.
func (a *Assignment) CopyObject(chainID string, level int) lifetime.Object {
	ci := a.ws.ChainIndex[chainID]
	ch := a.ws.Chains[ci]
	obj := a.ws.CandObjs[ci][level]
	for class := range ch.Candidate(level).Classes {
		ex, ok := a.Extras[StreamKey{Chain: chainID, Level: level, Class: class}]
		if !ok {
			continue
		}
		obj.Bytes += ex.Bytes
		if s := ch.BlockIndex - ex.HoistBlocks; s < obj.Start {
			obj.Start = s
		}
	}
	return obj
}

// PeakUsage returns the peak occupancy of the given layer under the
// assignment's in-place setting.
func (a *Assignment) PeakUsage(layer int) int64 {
	est := &lifetime.Estimator{NumBlocks: a.ws.NBlocks, InPlace: a.InPlace}
	return est.Peak(a.Objects(layer))
}

// Fits reports whether every bounded layer's peak occupancy is within
// its capacity.
func (a *Assignment) Fits() bool {
	for i := range a.Platform.Layers {
		cap := a.Platform.Layers[i].Capacity
		if cap == 0 {
			continue
		}
		if a.PeakUsage(i) > cap {
			return false
		}
	}
	return true
}

// Selections returns every selected (chain, level, layer) triple in
// deterministic order.
type Selection struct {
	Chain *reuse.Chain
	Level int
	Layer int
}

// Selections lists the selected copy candidates in deterministic
// order.
func (a *Assignment) Selections() []Selection {
	var out []Selection
	for _, id := range a.chainIDs() {
		ca := a.Chains[id]
		for i, lv := range ca.Levels {
			out = append(out, Selection{Chain: ca.Chain, Level: lv, Layer: ca.Layers[i]})
		}
	}
	return out
}

// AccessLayer returns the layer CPU accesses of the given chain hit:
// the innermost selected copy's layer, or the array home when the
// chain has no copies.
func (a *Assignment) AccessLayer(ch *reuse.Chain) int {
	if ca := a.Chains[ch.ID]; ca != nil && len(ca.Layers) > 0 {
		return ca.Layers[len(ca.Layers)-1]
	}
	return a.ArrayHome[ch.Array.Name]
}

// String summarises the assignment.
func (a *Assignment) String() string {
	s := fmt.Sprintf("assignment for %s on %s (policy %s)\n",
		a.Analysis.Program.Name, a.Platform.Name, a.Policy)
	names := make([]string, 0, len(a.ArrayHome))
	for n := range a.ArrayHome {
		names = append(names, n)
	}
	sort.Strings(names)
	bg := a.Platform.Background()
	for _, n := range names {
		if a.ArrayHome[n] != bg {
			s += fmt.Sprintf("  array %s -> %s\n", n, a.Platform.Layers[a.ArrayHome[n]].Name)
		}
	}
	for _, sel := range a.Selections() {
		cand := sel.Chain.Candidate(sel.Level)
		s += fmt.Sprintf("  copy %s -> %s (%dB, %d updates)\n",
			sel.Chain.ID+fmt.Sprintf("@%d", sel.Level),
			a.Platform.Layers[sel.Layer].Name, cand.Bytes, cand.Updates)
	}
	if len(a.Chains) == 0 {
		s += "  (no copies: out-of-the-box placement)\n"
	}
	return s
}
