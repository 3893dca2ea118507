package assign

import "slices"

// This file holds the mutable, allocation-free inner-loop state of the
// exact search engines (bnb.go): searchState applies one decision at a
// time against incremental per-layer occupancy trackers and undoes it
// on backtrack, so the steady-state DFS allocates nothing. A solution
// is a decision vector (one option index per level), read off the
// state with decisions; a search builds an Assignment only once, from
// the vector it returns (space.assignment).

// buildTables precomputes the per-decision cost tables the incremental
// search reads in its hot loop. The program-side halves — each
// array's lifetime object and used flag, each candidate's lifetime
// object, the chain-to-array index — are read from the workspace; the
// option enumeration is built in newSpace, and buildTables adds the
// capacity/cost-dependent tables:
//
//   - arrayContribTab[ai][hi]: the exact cost contribution of homing
//     array ai at arrayOpts[ai][hi] (aligned with arrayOpts);
//   - chainContribTab[ci][home*len(opts)+oi]: the contribution of
//     chain ci under each (home layer, option) pair — chainContrib
//     depends only on that pair, so per-child cost accumulation
//     becomes one lookup plus add.
func (s *space) buildTables() {
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
// decision tree. Each exact-search worker builds one and runs every
// subtree task it claims through it (root expansion and seed replay
// build their own), mutating it in place: apply takes one decision,
// undo reverts it, and a task rewinds its root prefix before the next
// task applies its own. All slices are preallocated; the apply/undo
// hot path performs no heap allocation.
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
	// last ran. A task refills it before reading it, so what an
	// earlier task left there is never seen.
	suffix []contrib
}

// newSearchState returns the root state: every array homed on the
// background layer (its objects placed in the background tracker when
// that layer is bounded) and no chain selections.
func newSearchState(s *space) *searchState {
	st := &searchState{
		sp:       s,
		occ:      newOccupancy(s.plat, s.ws.NBlocks, !s.opts.NoInPlace),
		homes:    make([]int, len(s.arrays)),
		chainSel: make([]int, len(s.chains)),
		suffix:   make([]contrib, len(s.chains)+1),
	}
	for ai := range s.arrays {
		st.homes[ai] = s.bg
		if s.ws.ArrayUsed[ai] {
			st.occ.Place(s.bg, s.ws.ArrayObjs[ai])
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
// During a search no time-extension Extras exist, so a copy occupies
// exactly its candidate bytes in its chain's block: the workspace's
// candidate object, the one Assignment.Objects reads.
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
	if len(op.layers) > 0 && op.layers[0] >= st.homes[s.ws.ChainArrayIdx[ci]] {
		return false
	}
	st.chainSel[ci] = oi
	if len(op.levels) == 0 {
		return true
	}
	for k, lv := range op.levels {
		st.occ.Place(op.layers[k], s.ws.CandObjs[ci][lv])
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
	op := &s.chainOpts[ci][oi]
	for k, lv := range op.levels {
		st.occ.Unplace(op.layers[k], s.ws.CandObjs[ci][lv])
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
	home := st.homes[s.ws.ChainArrayIdx[ci]]
	return s.chainContribTab[ci][home*len(s.chainOpts[ci])+oi]
}

// fillSuffix recomputes the home-aware suffix for the array homes
// currently applied: each chain's cheapest option valid under its
// array's home, summed from the last chain back.
func (st *searchState) fillSuffix() {
	s := st.sp
	for ci := len(s.chains) - 1; ci >= 0; ci-- {
		st.suffix[ci] = st.suffix[ci+1].plus(s.minChainHome[ci][st.homes[s.ws.ChainArrayIdx[ci]]])
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

// enterRoot positions a root-state searchState at a subtree root: the
// root's prefix applied and, when the root lies below the array
// levels, its home-aware suffix filled. rewindPrefix(root.decisions)
// returns the state to the root of the tree.
func (st *searchState) enterRoot(root rootNode) {
	st.applyPrefix(root.decisions)
	if len(root.decisions) > len(st.sp.arrays) {
		st.fillSuffix()
	}
}

// decisions copies the current position, one option index per level,
// into dst (reusing its backing array) and returns it. At a leaf it is
// the complete decision vector space.assignment builds from.
func (st *searchState) decisions(dst []int) []int {
	s := st.sp
	dst = slices.Grow(dst[:0], len(st.homes)+len(st.chainSel))
	for ai, home := range st.homes {
		dst = append(dst, slices.Index(s.arrayOpts[ai], home))
	}
	return append(dst, st.chainSel...)
}
