// Package dmasim is an event-driven timeline simulator for the memory
// transfer engine: it executes a block-level schedule of the
// application with explicit DMA channels, transfer durations,
// priorities and double buffering, and reports the resulting
// execution cycles.
//
// Where internal/sim validates the *counts* of the analytical model
// (accesses, transferred bytes), this package validates its *timing*:
//
//   - without time extensions every block transfer is synchronous, and
//     the simulated cycle count matches the analytical evaluation
//     exactly (asserted by tests for all nine applications);
//   - with time extensions, extended fetch streams run in
//     double-buffering mode — the transfer for update u+1 is issued
//     the moment update u is consumed — over the platform's limited
//     DMA channels, so channel contention, burst durations and
//     boundary effects emerge from the event timeline instead of
//     being estimated. Tests bound the deviation of the analytical
//     TE estimate against this reference.
//
// The simulator walks each block's loop tree only as deep as the
// deepest update point (copy levels); the CPU time of untouched
// subtrees is added analytically, which keeps even paper-scale
// workloads fast while preserving exact event ordering.
package dmasim

import (
	"fmt"
	"sort"

	"mhla/internal/assign"
	"mhla/internal/model"
	"mhla/internal/reuse"
	"mhla/internal/te"
)

// Result is the outcome of a timeline simulation.
type Result struct {
	// Cycles is the simulated execution time, including the init
	// transfers of on-chip homed arrays.
	Cycles int64
	// BlockCycles is the per-block breakdown.
	BlockCycles []int64
	// StallCycles is the time the CPU spent waiting on transfers
	// (including inline software copies, mirroring the analytical
	// stall bucket).
	StallCycles int64
	// Transfers counts the simulated block-transfer instances.
	Transfers int64
	// MaxChannelsBusy is the peak number of simultaneously busy DMA
	// channels observed.
	MaxChannelsBusy int
}

// channelPool models the DMA channels: each entry is the time the
// channel becomes free.
type channelPool struct {
	freeAt []int64
	peak   int
}

func newChannelPool(n int) *channelPool {
	return &channelPool{freeAt: make([]int64, n)}
}

// start schedules a transfer of the given duration not earlier than
// t, on the earliest-free channel, returning its completion time.
func (cp *channelPool) start(t, duration int64) int64 {
	best := 0
	for i := range cp.freeAt {
		if cp.freeAt[i] < cp.freeAt[best] {
			best = i
		}
	}
	begin := t
	if cp.freeAt[best] > begin {
		begin = cp.freeAt[best]
	}
	cp.freeAt[best] = begin + duration
	busy := 0
	for i := range cp.freeAt {
		if cp.freeAt[i] > begin {
			busy++
		}
	}
	if busy > cp.peak {
		cp.peak = busy
	}
	return begin + duration
}

// streamState tracks one block-transfer stream during the walk.
type streamState struct {
	stream assign.Stream
	// extended marks streams the TE plan runs in double-buffer mode.
	extended bool
	// hoisted marks initial fills prefetched during the previous
	// block.
	hoisted bool
	// priority orders simultaneous issues (lower = first).
	priority int
	// fired counts issued instances (to suppress the prefetch past
	// the last update).
	fired int64
	// pendingComplete is the completion time of the in-flight
	// prefetch for the NEXT update (double buffering), or -1.
	pendingComplete int64
}

// copyRuntime tracks one selected copy: its streams by class and the
// previously seen iterator prefix.
type copyRuntime struct {
	chain   *reuse.Chain
	level   int
	started bool
	prev    []int
	streams map[int]*streamState // by class index
}

// Simulate runs the timeline for the given TE plan.
func Simulate(plan *te.Plan) (*Result, error) {
	if plan == nil {
		return nil, fmt.Errorf("dmasim: nil plan")
	}
	return simulate(plan.Assignment, plan)
}

func simulate(a *assign.Assignment, plan *te.Plan) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("dmasim: %w", err)
	}
	prog := a.Analysis.Program
	res := &Result{BlockCycles: make([]int64, len(prog.Blocks))}

	// Index the TE decisions.
	extended := map[assign.StreamKey]bool{}
	hoisted := map[assign.StreamKey]bool{}
	priority := map[assign.StreamKey]int{}
	if plan != nil {
		for _, st := range plan.Streams {
			if st.HiddenCycles > 0 && st.LoopIndex >= 0 {
				extended[st.Key] = true
			}
			if st.BlockHoist > 0 {
				hoisted[st.Key] = true
			}
			priority[st.Key] = st.Priority
		}
	}

	// Group the copies per block.
	copiesByBlock := make([][]*copyRuntime, len(prog.Blocks))
	streamsByKey := map[assign.StreamKey]assign.Stream{}
	for _, st := range a.Streams() {
		streamsByKey[st.Key] = st
	}
	for _, sel := range a.Selections() {
		cr := &copyRuntime{
			chain:   sel.Chain,
			level:   sel.Level,
			prev:    make([]int, sel.Level),
			streams: map[int]*streamState{},
		}
		cand := sel.Chain.Candidate(sel.Level)
		for ci := range cand.Classes {
			key := assign.StreamKey{Chain: sel.Chain.ID, Level: sel.Level, Class: ci}
			bst, ok := streamsByKey[key]
			if !ok {
				continue // zero-byte or zero-count class
			}
			cr.streams[ci] = &streamState{
				stream:          bst,
				extended:        extended[key],
				hoisted:         hoisted[key],
				priority:        priority[key],
				pendingComplete: -1,
			}
		}
		copiesByBlock[sel.Chain.BlockIndex] = append(copiesByBlock[sel.Chain.BlockIndex], cr)
	}

	iter, _ := a.BusyCycles()
	sites := a.AccessLayerBySite()
	pool := newChannelPool(dmaChannels(a))

	now := int64(0)
	prevBlockStart := int64(0)
	for bi, b := range prog.Blocks {
		start := now
		w := &walker{
			a: a, iter: iter, sites: sites, pool: pool, res: res,
			copies: copiesByBlock[bi], now: now,
			prevBlockStart: prevBlockStart,
		}
		// Deterministic priority order for same-instant issues.
		sort.SliceStable(w.copies, func(i, j int) bool {
			return copyPriority(w.copies[i]) < copyPriority(w.copies[j])
		})
		w.walkNodes(b.Body, 0)
		now = w.now
		// Drain any still-in-flight transfer before the block ends
		// (conservative, as in the analytical model).
		for _, cr := range w.copies {
			for _, ss := range cr.streams {
				if ss.pendingComplete > now {
					res.StallCycles += ss.pendingComplete - now
					now = ss.pendingComplete
				}
			}
		}
		res.BlockCycles[bi] = now - start
		prevBlockStart = start
	}

	// Init transfers of on-chip homed arrays (same accounting as the
	// analytical model).
	bg := a.Platform.Background()
	for _, arr := range prog.Arrays {
		home := a.ArrayHome[arr.Name]
		if home == bg {
			continue
		}
		if arr.Input {
			now += a.Platform.TransferCycles(bg, home, arr.Bytes())
		}
		if arr.Output {
			now += a.Platform.TransferCycles(home, bg, arr.Bytes())
		}
	}
	res.Cycles = now
	res.MaxChannelsBusy = pool.peak
	return res, nil
}

func copyPriority(cr *copyRuntime) int {
	best := 1 << 30
	for _, ss := range cr.streams {
		if ss.priority < best {
			best = ss.priority
		}
	}
	return best
}

func dmaChannels(a *assign.Assignment) int {
	if a.Platform.DMA == nil {
		return 1
	}
	return a.Platform.DMA.Channels
}

// walker advances virtual time through one block.
type walker struct {
	a              *assign.Assignment
	iter           map[*model.Loop]int64
	sites          map[*model.Access]int
	pool           *channelPool
	res            *Result
	copies         []*copyRuntime
	now            int64
	prevBlockStart int64
	// nest and vals describe the current loop position.
	nest []*model.Loop
	vals []int
}

// maxLevel returns the deepest update level among the copies.
func (w *walker) maxLevel() int {
	max := 0
	for _, cr := range w.copies {
		if cr.level > max {
			max = cr.level
		}
	}
	return max
}

// walkNodes interprets the nodes at the given depth, descending into
// loops only while an update point can occur beneath them.
func (w *walker) walkNodes(nodes []model.Node, depth int) {
	if depth == 0 {
		// Level-0 copies fill once at block entry.
		w.syncCopies(0)
	}
	for _, n := range nodes {
		switch n := n.(type) {
		case *model.Loop:
			if depth >= w.maxLevel() {
				// No update points below: lump the whole subtree.
				w.now += int64(n.Trip) * w.iter[n]
				continue
			}
			w.nest = append(w.nest, n)
			w.vals = append(w.vals, 0)
			for i := 0; i < n.Trip; i++ {
				w.vals[depth] = i
				w.syncCopies(depth + 1)
				w.walkNodes(n.Body, depth+1)
			}
			w.nest = w.nest[:depth]
			w.vals = w.vals[:depth]
		case *model.Access:
			layer := w.sites[n]
			words := w.a.Platform.Layers[layer].Words(int64(n.Array.ElemSize))
			w.now += words * w.a.Platform.AccessCycles(layer, n.Kind == model.Write)
		case *model.Compute:
			w.now += n.Cycles
		}
	}
}

// syncCopies fires the update events of all copies whose level equals
// the current depth and whose nest matches the current position.
func (w *walker) syncCopies(depth int) {
	for _, cr := range w.copies {
		if cr.level != depth || !w.matchesNest(cr) {
			continue
		}
		class := 0 // fill
		if cr.started {
			changed := -1
			for j := 0; j < depth; j++ {
				if cr.prev[j] != w.vals[j] {
					changed = j
					break
				}
			}
			if changed < 0 {
				continue // prefix unchanged (cannot happen in a walk)
			}
			class = changed + 1
		}
		cr.started = true
		copy(cr.prev, w.vals[:depth])
		if ss := cr.streams[class]; ss != nil {
			w.fire(ss)
		}
	}
}

// matchesNest reports whether the copy's chain nest is the walker's
// current position (copies of sibling nests in the same block must
// not fire).
func (w *walker) matchesNest(cr *copyRuntime) bool {
	if len(cr.chain.Nest) < len(w.nest) {
		return false
	}
	for i := range w.nest {
		if cr.chain.Nest[i] != w.nest[i] {
			return false
		}
	}
	return true
}

// fire handles one transfer instance of a stream at the current time.
func (w *walker) fire(ss *streamState) {
	w.res.Transfers++
	ss.fired++
	st := ss.stream
	if !w.a.Platform.UsesDMA(st.Bytes) {
		// CPU software copy: inline cycles, counted as stall (memory
		// overhead) to mirror the analytical buckets.
		w.now += st.BTTime
		w.res.StallCycles += st.BTTime
		return
	}
	switch {
	case ss.hoisted:
		// Initial fill prefetched during the previous block: it was
		// issued at the previous block's start.
		complete := w.pool.start(w.prevBlockStart, st.BTTime)
		if complete > w.now {
			w.res.StallCycles += complete - w.now
			w.now = complete
		}
	case ss.extended && !st.Write:
		// Double buffering: the data consumed now was prefetched at
		// the previous update; issue the next update's transfer
		// immediately (unless this was the last instance).
		if ss.pendingComplete >= 0 {
			if ss.pendingComplete > w.now {
				w.res.StallCycles += ss.pendingComplete - w.now
				w.now = ss.pendingComplete
			}
			ss.pendingComplete = -1
		} else {
			// First instance: nothing was prefetched; synchronous.
			complete := w.pool.start(w.now, st.BTTime)
			w.res.StallCycles += complete - w.now
			w.now = complete
		}
		if ss.fired < st.Count {
			ss.pendingComplete = w.pool.start(w.now, st.BTTime)
		}
	case ss.extended && st.Write:
		// Overlapped drain: the CPU only waits if the previous drain
		// of this stream is still in flight (the buffer is reused),
		// then fires this drain asynchronously.
		if ss.pendingComplete > w.now {
			w.res.StallCycles += ss.pendingComplete - w.now
			w.now = ss.pendingComplete
		}
		ss.pendingComplete = w.pool.start(w.now, st.BTTime)
	default:
		// Synchronous transfer (non-extended fetch or write-back).
		complete := w.pool.start(w.now, st.BTTime)
		w.res.StallCycles += complete - w.now
		w.now = complete
	}
}
