package assign

import (
	"strconv"
	"strings"

	"mhla/internal/lifetime"
)

// This file holds the mutable, allocation-free inner-loop state of the
// exact search engines (bnb.go): searchState applies one decision at a
// time against incremental per-layer occupancy trackers and undoes it
// on backtrack, so the steady-state DFS allocates nothing. A full
// Assignment is materialized only at improved leaves.

// objDesc is one precomputed space consumer of a chain decision: the
// layer it occupies plus the ready-made lifetime object (ID string,
// bytes, span), so placing it in the hot loop is a table lookup with
// no formatting or slice building.
type objDesc struct {
	layer int
	obj   lifetime.Object
}

// optionKey encodes a chain selection (levels, layers) as a compact
// string key, so the enumerated options of a chain can be indexed by a
// map.
func optionKey(levels, layers []int) string {
	var b strings.Builder
	for i := range levels {
		b.WriteString(strconv.Itoa(levels[i]))
		b.WriteByte('@')
		b.WriteString(strconv.Itoa(layers[i]))
		b.WriteByte(';')
	}
	return b.String()
}

// buildTables precomputes the per-decision cost tables the incremental
// search reads in its hot loop. The program-side halves — each
// array's lifetime object and used flag, each candidate's lifetime
// object, the chain-to-array index — come ready-made from the
// workspace, and the option enumeration with its lifetime-object
// descriptors and key index comes from the shared platform-shape
// catalog (catalog.go, filtered by capacity in newSpace); only the
// genuinely capacity/cost-dependent tables are built per search:
//
//   - arrayContribTab[ai][hi]: the exact cost contribution of homing
//     array ai at arrayOpts[ai][hi] (aligned with arrayOpts);
//   - chainContribTab[ci][home*len(opts)+oi]: the contribution of
//     chain ci under each (home layer, option) pair — chainContrib
//     depends only on that pair, so per-child cost accumulation
//     becomes one lookup plus add.
func (s *space) buildTables() {
	s.arrayObjs = s.ws.ArrayObjs
	s.arrayUsed = s.ws.ArrayUsed
	s.chainArrayIdx = s.ws.ChainArrayIdx
	s.arrayContribTab = make([][]contrib, len(s.arrays))
	for i, arr := range s.arrays {
		tab := make([]contrib, len(s.arrayOpts[i]))
		for hi, home := range s.arrayOpts[i] {
			tab[hi] = arrayContrib(s.plat, arr, home)
		}
		s.arrayContribTab[i] = tab
	}

	nlayers := len(s.plat.Layers)
	s.chainContribTab = make([][]contrib, len(s.chains))
	for ci, ch := range s.chains {
		opts := s.chainOpts[ci]
		tab := make([]contrib, nlayers*len(opts))
		for home := 0; home < nlayers; home++ {
			for oi, op := range opts {
				tab[home*len(opts)+oi] = chainContrib(s.plat, s.opts.Policy, ch, home, op.levels, op.layers)
			}
		}
		s.chainContribTab[ci] = tab
	}
}

// searchState is the mutable position of one DFS worker in the
// decision tree. It is built once per subtree task (and once for root
// expansion), then mutated in place: apply takes one decision, undo
// reverts it. All slices are preallocated; the apply/undo hot path
// performs no heap allocation.
type searchState struct {
	sp *space
	// occ holds the incremental occupancy profile of every bounded
	// layer.
	occ *Occupancy
	// homes is the current home layer of every array (index-aligned
	// with sp.arrays); undecided arrays sit on the background layer,
	// which is also the out-of-the-box placement.
	homes []int
	// chainSel is the selected option index per chain, -1 while
	// undecided.
	chainSel []int
	// suffix is the home-aware bound of a subtree task: suffix[i]
	// bounds chains i.. under the array homes applied when fillSuffix
	// last ran. Only task states (space.taskState) carry it.
	suffix []contrib
}

// newSearchState returns the root state: every array homed on the
// background layer (its objects placed in the background tracker when
// that layer is bounded) and no chain selections.
func newSearchState(s *space) *searchState {
	st := &searchState{
		sp:       s,
		occ:      newOccupancy(s.plat, s.nblocks, !s.opts.NoInPlace),
		homes:    make([]int, len(s.arrays)),
		chainSel: make([]int, len(s.chains)),
	}
	for ai := range s.arrays {
		st.homes[ai] = s.bg
		if s.arrayUsed[ai] {
			st.occ.Place(s.bg, s.arrayObjs[ai])
		}
	}
	for ci := range s.chains {
		st.chainSel[ci] = -1
	}
	return st
}

// moveArray rehomes array ai, moving its lifetime object between the
// affected layer trackers.
func (st *searchState) moveArray(ai, from, to int) {
	st.homes[ai] = to
	st.occ.moveArray(st.sp.ws, ai, from, to)
}

// apply takes decision oi at the given depth (an array home while
// depth < len(arrays), a chain selection after) and reports whether
// the resulting position is feasible. Infeasible decisions —
// structurally invalid options or capacity overflows — are fully
// undone before returning false, so the state is unchanged. Feasible
// decisions must be reverted with undo(depth, oi).
//
// Feasibility mirrors the clone-per-node engine exactly: trivial
// decisions (background home, empty selection) are taken without a
// capacity check, and non-trivial ones check every bounded layer.
func (st *searchState) apply(depth, oi int) bool {
	s := st.sp
	if depth < len(s.arrays) {
		home := s.arrayOpts[depth][oi]
		if home == s.bg {
			return true
		}
		st.moveArray(depth, s.bg, home)
		if !st.occ.Fits() {
			st.moveArray(depth, home, s.bg)
			return false
		}
		return true
	}
	ci := depth - len(s.arrays)
	op := &s.chainOpts[ci][oi]
	if len(op.layers) > 0 && op.layers[0] >= st.homes[s.chainArrayIdx[ci]] {
		return false
	}
	st.chainSel[ci] = oi
	if len(op.levels) == 0 {
		return true
	}
	for _, od := range s.chainObjs[ci][oi] {
		st.occ.Place(od.layer, od.obj)
	}
	if !st.occ.Fits() {
		st.undo(depth, oi)
		return false
	}
	return true
}

// undo reverts a decision previously applied at the given depth,
// restoring the state to the position before apply(depth, oi).
func (st *searchState) undo(depth, oi int) {
	s := st.sp
	if depth < len(s.arrays) {
		if home := s.arrayOpts[depth][oi]; home != s.bg {
			st.moveArray(depth, home, s.bg)
		}
		return
	}
	ci := depth - len(s.arrays)
	st.chainSel[ci] = -1
	for _, od := range s.chainObjs[ci][oi] {
		st.occ.Unplace(od.layer, od.obj)
	}
}

// contribAt returns the precomputed cost contribution of decision oi
// at the given depth. Chain contributions depend on the current home
// of the chain's array, so this must be read while the array prefix is
// applied.
func (st *searchState) contribAt(depth, oi int) contrib {
	s := st.sp
	if depth < len(s.arrays) {
		return s.arrayContribTab[depth][oi]
	}
	ci := depth - len(s.arrays)
	home := st.homes[s.chainArrayIdx[ci]]
	return s.chainContribTab[ci][home*len(s.chainOpts[ci])+oi]
}

// fillSuffix recomputes the home-aware suffix for the array homes
// currently applied: each chain's cheapest option valid under its
// array's home, summed from the last chain back.
func (st *searchState) fillSuffix() {
	s := st.sp
	for ci := len(s.chains) - 1; ci >= 0; ci-- {
		st.suffix[ci] = st.suffix[ci+1].plus(s.minChainHome[ci][st.homes[s.chainArrayIdx[ci]]])
	}
}

// boundAt is the optimistic score of a node at the given depth whose
// decided prefix contributes acc: the home-aware suffix below the
// array levels, the home-free one at and above them. At a leaf both
// suffixes are zero and the bound is the exact leaf score.
func (st *searchState) boundAt(depth int, acc contrib) float64 {
	s := st.sp
	if d := depth - len(s.arrays); d > 0 {
		return s.opts.Objective.contribScore(acc.plus(st.suffix[d]))
	}
	return s.boundAt(depth, acc)
}

// applyPrefix replays a decision prefix produced by root expansion.
// Prefixes are feasible by construction; a failing replay means the
// engine's determinism is broken.
func (st *searchState) applyPrefix(decisions []int) {
	for depth, oi := range decisions {
		if !st.apply(depth, oi) {
			panic("assign: infeasible search-prefix replay")
		}
	}
}

// rewindPrefix undoes a prefix applied with applyPrefix.
func (st *searchState) rewindPrefix(decisions []int) {
	for depth := len(decisions) - 1; depth >= 0; depth-- {
		st.undo(depth, decisions[depth])
	}
}

// materialize builds a full Assignment from the current decisions —
// identical to the one the clone-per-node engine carried at the same
// tree position. Called only at improved leaves and in tests; the hot
// loop never materializes.
func (st *searchState) materialize() *Assignment {
	s := st.sp
	a := s.start.Clone()
	for ai, arr := range s.arrays {
		if st.homes[ai] != s.bg {
			a.SetHome(arr.Name, st.homes[ai])
		}
	}
	for ci, ch := range s.chains {
		oi := st.chainSel[ci]
		if oi < 0 {
			continue
		}
		op := &s.chainOpts[ci][oi]
		if len(op.levels) == 0 {
			continue
		}
		a.Chains[ch.ID] = &ChainAssign{
			Chain:  ch,
			Levels: append([]int(nil), op.levels...),
			Layers: append([]int(nil), op.layers...),
		}
	}
	return a
}
