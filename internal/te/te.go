// Package te implements the Time Extension (TE) step of the paper —
// the application-specific prefetching of DMA block transfers
// described by its Figure 1.
//
// For every DMA block transfer (BT) the step tries to schedule the
// initiation of the DMA earlier, so the transfer overlaps with CPU
// processing instead of stalling it. The algorithm is the paper's,
// verbatim:
//
//  1. Every DMA-capable BT enters BT_list with its estimated duration
//     BT_time, its sort factor BT_time/size, and its dependence
//     freedom (the loops between the data's producer and the BT).
//  2. BT_list is processed in greedy order (descending sort factor).
//  3. Each BT is extended loop by loop: crossing one more enclosing
//     loop hides that loop's per-iteration CPU cycles but lengthens
//     the copy's lifetime, which costs buffer space — if the increase
//     would overflow the on-chip size constraint, the extension stops
//     (fits_size). Extension also stops as soon as the accumulated
//     hidden cycles cover BT_time (fully time extended).
//  4. Finally DMA priorities are assigned (dma_priority()).
//
// Per the paper, TE is only applicable when the platform has a memory
// transfer engine; without one the plan is empty. Energy is unchanged
// by TE because the cost model counts memory accesses only.
package te

import (
	"fmt"
	"sort"
	"strings"

	"mhla/internal/assign"
	"mhla/internal/model"
	"mhla/internal/workspace"
)

// Stream is one block-transfer stream (all transfers of one update
// class of one selected copy) with its time-extension decision.
type Stream struct {
	assign.Stream
	// SortFactor is BT_time/size, the paper's greedy ordering key.
	SortFactor float64
	// FreedomLoops are the nest loop indices the initiation may be
	// hoisted across, innermost first (empty when dependences forbid
	// any extension).
	FreedomLoops []int
	// ExtendedLoops are the loops actually crossed.
	ExtendedLoops []int
	// HiddenCycles is the CPU time available to overlap one transfer.
	HiddenCycles int64
	// FullyExtended reports HiddenCycles >= BTTime.
	FullyExtended bool
	// SizeLimited reports that the on-chip size constraint stopped
	// the extension early.
	SizeLimited bool
	// BlockHoist is 1 when an initial-fill transfer is prefetched
	// during the previous top-level block.
	BlockHoist int
	// Priority is the DMA priority (0 = highest, assigned in greedy
	// order).
	Priority int
}

// Plan is the result of the TE step.
type Plan struct {
	// Assignment is a copy of the input assignment with the
	// time-extension buffer extras applied; evaluating it with
	// Hidden() yields the MHLA+TE cost.
	Assignment *assign.Assignment
	// Streams lists every BT stream in greedy (priority) order.
	Streams []*Stream
	// Applicable is false when the platform has no DMA engine (the
	// plan is then empty and MHLA+TE degenerates to MHLA).
	Applicable bool
}

// Hidden returns the per-stream hidden cycles for the evaluator.
func (p *Plan) Hidden() map[assign.StreamKey]int64 {
	m := make(map[assign.StreamKey]int64, len(p.Streams))
	for _, st := range p.Streams {
		if st.HiddenCycles > 0 {
			m[st.Key] = st.HiddenCycles
		}
	}
	return m
}

// Options tune the TE step beyond the paper's Figure 1.
type Options struct {
	// ExtendWrites also overlaps write-back (drain) streams: the DMA
	// writes the outgoing region to the parent layer while the CPU
	// continues with the next update. The paper's algorithm only
	// prefetches fetches; this is the symmetric extension, off by
	// default.
	ExtendWrites bool
}

// Extend runs the TE step on an assignment produced by the MHLA
// assignment step with default options. The input assignment is not
// modified; the returned plan carries its own copy with the extension
// extras applied.
func Extend(a *assign.Assignment) (*Plan, error) {
	return ExtendWithOptions(a, Options{})
}

// ExtendWithOptions runs the TE step with explicit options.
func ExtendWithOptions(a *assign.Assignment, opts Options) (*Plan, error) {
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
	// Each stream's key is rendered once, not per comparison.
	type keyed struct {
		st  *Stream
		key string
	}
	order := make([]keyed, len(plan.Streams))
	for i, st := range plan.Streams {
		order[i] = keyed{st, st.Key.String()}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.st.SortFactor != b.st.SortFactor {
			return a.st.SortFactor > b.st.SortFactor
		}
		return a.key < b.key
	})
	for i := range order {
		plan.Streams[i] = order[i].st
	}

	// Step 3: extend each BT while dependences and the size
	// constraint allow, until fully hidden. The occupancy starts from
	// the assignment's objects and follows every accepted extension.
	occ := work.Occupancy()
	for _, st := range plan.Streams {
		extendStream(work, occ, st, iterCycles, blockBusy)
	}

	// Step 4: dma_priority().
	for i, st := range plan.Streams {
		st.Priority = i
	}
	return plan, nil
}

// extendStream applies the per-BT extension loop of Figure 1.
func extendStream(work *assign.Assignment, occ *assign.Occupancy, st *Stream, iterCycles map[*model.Loop]int64, blockBusy []int64) {
	ws := work.Workspace()
	if len(st.FreedomLoops) == 0 && !fillCanHoist(ws, st) {
		return
	}
	chain := ws.ChainByID[st.ChainID]

	if st.LoopIndex < 0 {
		// Initial fill: prefetch during the previous top-level block.
		prev := work.Extras[st.Key]
		if !setExtra(work, occ, st, assign.Extra{Bytes: prev.Bytes, HoistBlocks: 1}) {
			st.SizeLimited = true
			return
		}
		st.BlockHoist = 1
		st.HiddenCycles += blockBusy[st.BlockIndex-1]
		st.FullyExtended = st.HiddenCycles >= st.BTTime
		return
	}

	// Steady and wrap classes: cross freedom loops innermost first.
	for _, li := range st.FreedomLoops {
		// fits_size: each crossed loop keeps one more update in
		// flight.
		prev := work.Extras[st.Key]
		if !setExtra(work, occ, st, assign.Extra{Bytes: prev.Bytes + st.Bytes, HoistBlocks: prev.HoistBlocks}) {
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

// setExtra sets the stream's extra to ex when the copy, grown by it,
// still fits every bounded layer: it swaps the copy's old lifetime
// object for the grown one in the occupancy and checks the peaks. On
// overflow it restores the previous extra and object and reports
// false.
func setExtra(work *assign.Assignment, occ *assign.Occupancy, st *Stream, ex assign.Extra) bool {
	prev, had := work.Extras[st.Key]
	old := work.CopyObject(st.ChainID, st.Level)
	work.Extras[st.Key] = ex
	grown := work.CopyObject(st.ChainID, st.Level)
	occ.Unplace(st.Layer, old)
	occ.Place(st.Layer, grown)
	if occ.Fits() {
		return true
	}
	occ.Unplace(st.Layer, grown)
	occ.Place(st.Layer, old)
	if had {
		work.Extras[st.Key] = prev
	} else {
		delete(work.Extras, st.Key)
	}
	return false
}

// freedomLoops computes the loops the BT initiation may be hoisted
// across (dep_analysis + loops_between of Figure 1), innermost first:
//
//   - write-back streams are not prefetched (TE targets fetches)
//     unless Options.ExtendWrites overlaps their drains;
//   - a fetch whose array is also written in the same block has no
//     freedom (conservative same-block dependence);
//   - a fetch must not be hoisted across a loop below its parent
//     copy's level — the parent's content would not be current yet;
//   - otherwise the initiation may cross loops LoopIndex down to the
//     parent level (or 0 for fetches from the array home).
func freedomLoops(ws *workspace.Workspace, st *Stream, opts Options) []int {
	if st.LoopIndex < 0 {
		return nil
	}
	if st.Write {
		if !opts.ExtendWrites {
			return nil
		}
		// A drain can always overlap the following iterations of its
		// own update loop; crossing outer loops adds nothing (the
		// next drain of the same stream synchronizes anyway).
		return []int{st.LoopIndex}
	}
	ch := ws.ChainByID[st.ChainID]
	if ws.WrittenIn(ch.Array.Name, st.BlockIndex) {
		return nil
	}
	limit := 0
	if st.ParentLevel >= 0 {
		limit = st.ParentLevel
	}
	var loops []int
	for li := st.LoopIndex; li >= limit; li-- {
		loops = append(loops, li)
	}
	return loops
}

// fillCanHoist reports whether an initial-fill stream may be
// prefetched during the previous block: there must be a previous
// block, the parent must be the array home (a parent copy's own fill
// lands in the same block), and the array must not be produced in the
// previous or the same block.
func fillCanHoist(ws *workspace.Workspace, st *Stream) bool {
	if st.LoopIndex >= 0 || st.Write || st.ParentLevel >= 0 || st.BlockIndex == 0 {
		return false
	}
	ch := ws.ChainByID[st.ChainID]
	return !ws.WrittenIn(ch.Array.Name, st.BlockIndex) &&
		!ws.WrittenIn(ch.Array.Name, st.BlockIndex-1)
}

// String renders the plan for reports: one line per BT stream in
// priority order.
func (p *Plan) String() string {
	if !p.Applicable {
		return "time extensions not applicable (no DMA engine)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "time extension plan (%d BT streams)\n", len(p.Streams))
	for _, st := range p.Streams {
		state := "not extended"
		switch {
		case st.FullyExtended:
			state = "fully extended"
		case st.HiddenCycles > 0:
			state = "partially extended"
		}
		if st.SizeLimited {
			state += " (size limited)"
		}
		fmt.Fprintf(&sb, "  p%-2d %-28s bt=%dcy x%d size=%dB hidden=%dcy %s\n",
			st.Priority, st.Key, st.BTTime, st.Count, st.Bytes, st.HiddenCycles, state)
	}
	return sb.String()
}
