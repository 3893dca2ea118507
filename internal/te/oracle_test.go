package te

// The Fits-based time-extension step, kept verbatim as the reference
// oracle of the tracker-based one in te.go: every one-loop extension
// re-checks capacity with a from-scratch Assignment.Fits, and the
// greedy order sorts on Key.String() inside the comparator. The
// differential test (differential_test.go) requires the production
// step to return the identical Plan.

import (
	"fmt"
	"sort"

	"mhla/internal/assign"
	"mhla/internal/model"
)

// oracleExtendWithOptions runs the TE step with explicit options.
func oracleExtendWithOptions(a *assign.Assignment, opts Options) (*Plan, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("te: %w", err)
	}
	work := a.Clone()
	plan := &Plan{Assignment: work}
	if !work.Platform.HasDMA() {
		// "In case that our architecture does not support a memory
		// transfer engine, TE are not applicable."
		return plan, nil
	}
	plan.Applicable = true

	iterCycles, blockBusy := work.BusyCycles()
	// The dependence table (which blocks write which arrays) comes
	// precomputed from the assignment's workspace.
	ws := work.Workspace()

	// Step 1: collect BTs, estimate cycles, compute the sort factor
	// and the dependence freedom. Only DMA transfers enter BT_list
	// (the is_DMA(BT) test of Figure 1) — copy updates small enough
	// to be CPU software copies cannot be prefetched.
	for _, bst := range work.Streams() {
		if !work.Platform.UsesDMA(bst.Bytes) {
			continue
		}
		st := &Stream{
			Stream:     bst,
			SortFactor: float64(bst.BTTime) / float64(bst.Bytes),
		}
		st.FreedomLoops = freedomLoops(ws, st, opts)
		plan.Streams = append(plan.Streams, st)
	}

	// Step 2: greedy order — descending BT_time/size, stable by key.
	sort.SliceStable(plan.Streams, func(i, j int) bool {
		a, b := plan.Streams[i], plan.Streams[j]
		if a.SortFactor != b.SortFactor {
			return a.SortFactor > b.SortFactor
		}
		return a.Key.String() < b.Key.String()
	})

	// Step 3: extend each BT while dependences and the size
	// constraint allow, until fully hidden.
	for _, st := range plan.Streams {
		oracleExtendStream(work, st, iterCycles, blockBusy)
	}

	// Step 4: dma_priority().
	for i, st := range plan.Streams {
		st.Priority = i
	}
	return plan, nil
}

// oracleExtendStream applies the per-BT extension loop of Figure 1.
func oracleExtendStream(work *assign.Assignment, st *Stream, iterCycles map[*model.Loop]int64, blockBusy []int64) {
	ws := work.Workspace()
	if len(st.FreedomLoops) == 0 && !fillCanHoist(ws, st) {
		return
	}
	chain := ws.ChainByID[st.ChainID]

	if st.LoopIndex < 0 {
		// Initial fill: prefetch during the previous top-level block.
		key := st.Key
		prev, had := work.Extras[key]
		work.Extras[key] = assign.Extra{Bytes: prev.Bytes, HoistBlocks: 1}
		if !work.Fits() {
			if had {
				work.Extras[key] = prev
			} else {
				delete(work.Extras, key)
			}
			st.SizeLimited = true
			return
		}
		st.BlockHoist = 1
		st.HiddenCycles += blockBusy[st.BlockIndex-1]
		st.FullyExtended = st.HiddenCycles >= st.BTTime
		return
	}

	// Steady and wrap classes: cross freedom loops innermost first.
	key := st.Key
	for _, li := range st.FreedomLoops {
		// fits_size: each crossed loop keeps one more update in
		// flight.
		prev := work.Extras[key]
		work.Extras[key] = assign.Extra{Bytes: prev.Bytes + st.Bytes, HoistBlocks: prev.HoistBlocks}
		if !work.Fits() {
			work.Extras[key] = prev
			if prev.Bytes == 0 {
				delete(work.Extras, key)
			}
			st.SizeLimited = true
			return
		}
		st.ExtendedLoops = append(st.ExtendedLoops, li)
		st.HiddenCycles += iterCycles[chain.Nest[li]]
		if st.HiddenCycles >= st.BTTime {
			st.FullyExtended = true
			return
		}
	}
}
