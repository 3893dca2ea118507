package assign

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mhla/internal/lifetime"
	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/reuse"
	"mhla/internal/workspace"
)

// contrib is the decomposed cost contribution of one decision (a
// chain's selection or an array's home): cycles and energy are both
// additive across decisions when no time extensions are applied,
// which is what makes branch-and-bound lower bounds exact.
type contrib struct {
	cycles int64
	energy float64
}

func (c contrib) plus(o contrib) contrib {
	return contrib{cycles: c.cycles + o.cycles, energy: c.energy + o.energy}
}

// score maps a contribution to the searched scalar. For MinEDP the
// product of the component lower bounds is itself a lower bound.
func (o Objective) contribScore(c contrib) float64 {
	switch o {
	case MinTime:
		return float64(c.cycles)
	case MinEDP:
		return c.energy * float64(c.cycles)
	default:
		return c.energy
	}
}

// chainContrib computes the access and transfer cost of one chain
// under the given home and selection (full stalls, no extensions).
// The exact engines call it only from buildTables — the DFS hot loop
// reads the precomputed chainContribTab instead.
func chainContrib(plat *platform.Platform, policy reuse.Policy, ch *reuse.Chain, home int, levels, layers []int) contrib {
	var c contrib
	// CPU accesses.
	accessLayer := home
	if len(layers) > 0 {
		accessLayer = layers[len(layers)-1]
	}
	w := plat.Layers[accessLayer].Words(int64(ch.Array.ElemSize))
	n := ch.AccessesPerExecution()
	isWrite := ch.Kind == model.Write
	c.cycles += n * w * plat.AccessCycles(accessLayer, isWrite)
	c.energy += float64(n*w) * plat.AccessEnergy(accessLayer, isWrite)
	// Transfers.
	parent := home
	for i, lv := range levels {
		layer := layers[i]
		cand := ch.Candidate(lv)
		for ci, uc := range cand.Classes {
			bytes := cand.UpdateBytes(ci, policy)
			if uc.Count == 0 || bytes == 0 {
				continue
			}
			src, dst := parent, layer
			if isWrite {
				src, dst = layer, parent
			}
			c.cycles += uc.Count * plat.TransferCycles(src, dst, bytes)
			c.energy += float64(uc.Count) * plat.TransferEnergy(src, dst, bytes)
		}
		parent = layer
	}
	return c
}

// arrayContrib is the initial-fill / final-write-back cost of homing
// an array on the given layer.
func arrayContrib(plat *platform.Platform, arr *model.Array, home int) contrib {
	var c contrib
	bg := plat.Background()
	if home == bg {
		return c
	}
	if arr.Input {
		c.cycles += plat.TransferCycles(bg, home, arr.Bytes())
		c.energy += plat.TransferEnergy(bg, home, arr.Bytes())
	}
	if arr.Output {
		c.cycles += plat.TransferCycles(home, bg, arr.Bytes())
		c.energy += plat.TransferEnergy(home, bg, arr.Bytes())
	}
	return c
}

// option is one possible selection for a chain.
type option struct {
	levels, layers []int
}

// expandTargetTasks is the number of independent subtree roots the
// exact engines split the decision tree into. It is a constant — not
// a function of Options.Workers — so the task decomposition, and with
// it every per-task search, is identical at every worker count.
const expandTargetTasks = 32

// rootNode is one independent subtree root of the parallel search: the
// decision prefix (one option index per decided level; its length is
// the root's depth) and the exact cost contribution accumulated over
// that prefix. Workers replay the prefix into their own searchState,
// so roots carry no assignment and are trivially safe to hand across
// goroutines.
type rootNode struct {
	decisions []int
	acc       contrib
}

// space holds the immutable decision tables of one exact search,
// shared read-only by all workers, plus the small amount of shared
// mutable state (cancellation flag, progress counters, the atomic
// incumbent).
type space struct {
	ctx    context.Context
	ws     *workspace.Workspace
	plat   *platform.Platform
	opts   Options
	prune  bool
	engine Engine
	bg     int

	// Decision variables, in the fixed search order: array homes
	// first (arrays sorted by name), then one selection per chain (in
	// analysis order).
	arrays    []*model.Array
	arrayOpts [][]int
	chains    []*reuse.Chain
	chainOpts [][]option

	// Precomputed per-decision tables (see buildTables in state.go):
	// cost contributions, lifetime objects and option indices, so the
	// DFS inner loop is table lookups against a mutable searchState
	// instead of Assignment clones and profile rebuilds. cat is the
	// workspace's shared platform-shape option catalog (catalog.go);
	// optRemap[ci][fi] maps a catalog option index to this point's
	// capacity-filtered index in chainOpts[ci] (-1 when infeasible
	// here), so seed mapping reads the shared catalog index instead of
	// building a per-point map.
	nblocks         int
	arrayObjs       []lifetime.Object
	arrayUsed       []bool
	arrayContribTab [][]contrib
	chainContribTab [][]contrib
	chainObjs       [][][]objDesc
	chainArrayIdx   []int
	cat             *chainCatalog
	optRemap        [][]int

	// suffix[i] is the home-free lower bound on the total contribution
	// of chains i..: each chain's cheapest option under any home an
	// array can take. It bounds every node while array homes are still
	// open, in the task DFS and in root expansion. Once every home is
	// decided, a task's searchState bounds the chains with its own
	// home-aware suffix instead (fillSuffix), summed from
	// minChainHome[ci][home], the chain's cheapest option valid under
	// that home. The tighter bound prunes only internal nodes: a leaf
	// is still evaluated exactly when its score is within the task's
	// limit. Root expansion keeps the home-free suffix on purpose: its
	// pruning decides the task split, and since each task prunes
	// against its own incumbent, another split would change the
	// explored leaves and state counts.
	suffix       []contrib
	minChainHome [][]contrib
	base         contrib
	start        *Assignment

	// Seeded incumbent (branch and bound only; nil until installSeed
	// accepts one). The seed score is folded from the same
	// per-decision contributions, in the same order, as the DFS
	// accumulates leaf scores, so the two are bit-comparable.
	seed      *Assignment
	seedScore float64

	// Shared worker state. bestBits carries the global incumbent
	// score (float bits, lowered by CAS) for progress reporting.
	// Pruning deliberately uses only the deterministic bounds — the
	// greedy seed plus each task's own incumbent — never the timing
	// dependent global one, so the explored tree and the returned
	// Result are byte-identical at every worker count.
	cancelled  atomic.Bool
	ticks      atomic.Int64
	leaves     atomic.Int64
	bestBits   atomic.Uint64
	progressMu sync.Mutex
}

// newSpace precomputes the platform-dependent decision tables of an
// exact search over the workspace's program-side tables.
func newSpace(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options, prune bool) *space {
	s := &space{
		ctx:    ctx,
		ws:     ws,
		plat:   plat,
		opts:   opts,
		prune:  prune,
		engine: Exhaustive,
		bg:     plat.Background(),
	}
	if prune {
		s.engine = BranchBound
	}

	// The decision order (arrays sorted by name, chains in analysis
	// order) is the workspace's table order.
	s.arrays = ws.Arrays
	s.arrayOpts = make([][]int, len(s.arrays))
	for i, arr := range s.arrays {
		homes := []int{s.bg}
		for _, ly := range plat.OnChipLayers() {
			if arr.Bytes() <= plat.Layers[ly].Capacity {
				homes = append(homes, ly)
			}
		}
		s.arrayOpts[i] = homes
	}
	// Per-point chain options are the shared shape catalog filtered by
	// this platform's capacities: the feasible subsequence of the
	// catalog's pre-order enumeration is the capacity-skipping
	// per-platform enumeration exactly (order included), so the decision space — and every
	// downstream tie-break — is unchanged. The inner option slices and
	// object descriptors are shared read-only with the catalog.
	s.cat = catalogFor(ws, plat)
	s.chains = ws.Chains
	s.chainOpts = make([][]option, len(s.chains))
	s.chainObjs = make([][][]objDesc, len(s.chains))
	s.optRemap = make([][]int, len(s.chains))
	for i, ch := range s.chains {
		full := s.cat.full[i]
		remap := make([]int, len(full))
		opts := make([]option, 0, len(full))
		objs := make([][]objDesc, 0, len(full))
		for fi, op := range full {
			if !optionFeasible(plat, ch, op) {
				remap[fi] = -1
				continue
			}
			remap[fi] = len(opts)
			opts = append(opts, op)
			objs = append(objs, s.cat.objs[i][fi])
		}
		s.chainOpts[i] = opts
		s.chainObjs[i] = objs
		s.optRemap[i] = remap
	}

	s.nblocks = ws.NBlocks
	s.buildTables()

	// Per-chain optimistic contributions, read from the precomputed
	// contribution tables: minChainHome[ci][home] is the componentwise
	// minimum over the options valid under that home, and the home-free
	// minimum over every home an array can take is folded into suffix.
	homes := append([]int{s.bg}, plat.OnChipLayers()...)
	nlayers := len(plat.Layers)
	s.minChainHome = make([][]contrib, len(s.chains))
	s.suffix = make([]contrib, len(s.chains)+1)
	for i := len(s.chains) - 1; i >= 0; i-- {
		byHome := make([]contrib, nlayers)
		nopts := len(s.chainOpts[i])
		for home := range byHome {
			best := contrib{cycles: 1 << 62, energy: 1e300}
			for oi, op := range s.chainOpts[i] {
				if len(op.layers) > 0 && op.layers[0] >= home {
					continue
				}
				c := s.chainContribTab[i][home*nopts+oi]
				best.cycles = min(best.cycles, c.cycles)
				best.energy = min(best.energy, c.energy)
			}
			byHome[home] = best
		}
		s.minChainHome[i] = byHome
		free := contrib{cycles: 1 << 62, energy: 1e300}
		for _, home := range homes {
			free.cycles = min(free.cycles, byHome[home].cycles)
			free.energy = min(free.energy, byHome[home].energy)
		}
		s.suffix[i] = s.suffix[i+1].plus(free)
	}

	s.base = contrib{cycles: ws.TotalCompute}
	s.start = NewInWorkspace(ws, plat, opts.Policy)
	s.start.InPlace = !opts.NoInPlace
	s.seedScore = math.Inf(1)
	s.bestBits.Store(math.Float64bits(math.Inf(1)))
	return s
}

// levels is the total number of decisions of a complete assignment.
func (s *space) levels() int { return len(s.arrays) + len(s.chains) }

// optionCount returns the number of enumerated decisions at a depth.
func (s *space) optionCount(depth int) int {
	if depth < len(s.arrays) {
		return len(s.arrayOpts[depth])
	}
	return len(s.chainOpts[depth-len(s.arrays)])
}

// suffixAt returns the home-free optimistic bound on everything
// undecided at the given depth. While array homes are still open all
// chains are undecided.
func (s *space) suffixAt(depth int) contrib {
	if depth <= len(s.arrays) {
		return s.suffix[0]
	}
	return s.suffix[depth-len(s.arrays)]
}

// seedIncumbent runs the greedy engine and installs its assignment as
// the initial branch-and-bound incumbent, so every subtree task starts
// with a strong deterministic bound (this replaces cross-task bound
// sharing, which would make the explored tree depend on scheduling).
// Nothing is installed when greedy was cancelled. A greedy result
// always replays: it was built under this platform, whose unbounded
// background layer takes every array the replay has not yet rehomed.
func (s *space) seedIncumbent() {
	gopts := s.opts
	gopts.Progress = nil
	if gr := greedySearch(s.ctx, s.ws, s.plat, gopts); gr != nil {
		s.installSeed(gr.Assignment)
	}
}

// installSeed installs an assignment as the branch-and-bound incumbent
// when it replays under this search's platform and its score, folded
// from the per-decision contributions in the same depth order as DFS
// leaf scores (so the two are bit-comparable), strictly beats the
// installed seed. Both the greedy seed and a caller's warm start
// (Options.Incumbent — in the L1 sweep's incremental search, the
// previous, smaller point's optimum) come through here. A warm start
// is re-validated and re-scored under the *current* platform (per-size
// platforms differ in costs, not just capacity); one that no longer
// maps or fits, or scores no better than the greedy seed, is rejected,
// so a warm-started search never explores more states than a fresh
// one. The search still returns the DFS-first leaf attaining the
// global minimum, which keeps a warm-started complete search
// byte-identical to a greedy-seeded one in everything but the explored
// state count. The seed is re-materialized from the replayed state, so
// the MaxStates fallback returns an assignment priced under this
// platform.
func (s *space) installSeed(a *Assignment) {
	st, decisions, ok := s.replay(a)
	if !ok {
		return
	}
	score := s.foldScore(st, decisions)
	if s.seed != nil && score >= s.seedScore {
		return
	}
	s.seed, s.seedScore = st.materialize(), score
	s.publishBest(score)
}

// replay maps an assignment's decisions (array homes, chain
// selections) onto this search's decision tables in the fixed search
// order and applies each to a fresh searchState, returning the state
// and the decision vector (one option index per level). ok is false
// when a home or selection does not exist in the tables under the
// current platform — an incumbent from a smaller L1 may name layers
// or options this point filtered out — or a decision does not fit;
// the state is then dropped, so there is nothing to roll back.
func (s *space) replay(a *Assignment) (st *searchState, decisions []int, ok bool) {
	st = newSearchState(s)
	decisions = make([]int, 0, s.levels())
	for i, arr := range s.arrays {
		hi := slices.Index(s.arrayOpts[i], a.ArrayHome[arr.Name])
		if hi < 0 || !st.apply(i, hi) {
			return nil, nil, false
		}
		decisions = append(decisions, hi)
	}
	for i, ch := range s.chains {
		var lv, ly []int
		if ca := a.Chains[ch.ID]; ca != nil {
			lv, ly = ca.Levels, ca.Layers
		}
		if len(lv) != len(ly) {
			return nil, nil, false
		}
		oi, ok := s.lookupOption(i, lv, ly)
		if !ok || !st.apply(len(s.arrays)+i, oi) {
			return nil, nil, false
		}
		decisions = append(decisions, oi)
	}
	return st, decisions, true
}

// pruneSubtree reports whether the subtree with the given optimistic
// bound cannot improve on the incumbent score. The comparison leaves
// a small relative slack: the bound folds the suffix contributions in
// a different order than leaf scores fold theirs, so it can exceed
// the true subtree minimum by a few ulps, and pruning on a bare
// bound > best would then discard an optimal (or tied) leaf and break
// the exact agreement with the exhaustive engine. With the slack,
// subtrees holding a tied leaf survive too; the tied leaves are then
// rejected by the strict improvement rule at evaluation, which keeps
// the lexicographically-first tie-break intact. The slack is a
// deterministic function of the incumbent score, so the explored tree
// stays byte-identical at every worker count.
func (s *space) pruneSubtree(bound, bestScore float64) bool {
	return bound > pruneLimit(bestScore)
}

// pruneLimit is the threshold pruneSubtree compares a bound against:
// the incumbent score plus its slack, +Inf while there is no
// incumbent.
func pruneLimit(bestScore float64) float64 {
	if math.IsInf(bestScore, 1) {
		return bestScore
	}
	return bestScore + 1e-9*(1+math.Abs(bestScore))
}

// boundAt is the optimistic score of a node at the given depth whose
// decided prefix contributes acc. At a leaf the suffix is zero and the
// bound is the exact leaf score.
func (s *space) boundAt(depth int, acc contrib) float64 {
	return s.opts.Objective.contribScore(acc.plus(s.suffixAt(depth)))
}

// expandRoots splits the decision tree into independent subtree roots
// by breadth-first expansion of whole decision levels until at least
// expandTargetTasks roots exist or the tree is fully expanded. The
// expansion does not depend on the worker count, and the only bound
// it prunes with is the deterministic greedy seed. One scratch
// searchState is replayed per frontier node to run the same
// feasibility checks the per-task DFS runs.
func (s *space) expandRoots() []rootNode {
	st := newSearchState(s)
	frontier := []rootNode{{acc: s.base}}
	for depth := 0; depth < s.levels() && len(frontier) < expandTargetTasks; depth++ {
		next := make([]rootNode, 0, 2*len(frontier))
		for _, n := range frontier {
			if s.prune {
				if s.pruneSubtree(s.boundAt(depth, n.acc), s.seedScore) {
					continue
				}
			}
			st.applyPrefix(n.decisions)
			for oi, nopts := 0, s.optionCount(depth); oi < nopts; oi++ {
				if !st.apply(depth, oi) {
					continue
				}
				acc := n.acc.plus(st.contribAt(depth, oi))
				st.undo(depth, oi)
				decisions := append(append(make([]int, 0, depth+1), n.decisions...), oi)
				next = append(next, rootNode{decisions: decisions, acc: acc})
			}
			st.rewindPrefix(n.decisions)
		}
		frontier = next
	}
	return frontier
}

// taskResult is the deterministic outcome of one subtree search.
// nodes counts the DFS nodes the task walked: every node entered plus
// every child its bound skipped.
type taskResult struct {
	best     *Assignment
	score    float64
	states   int
	nodes    int
	complete bool
	found    bool
}

// taskState returns a fresh searchState positioned at a subtree root:
// the root's prefix applied and, when the root lies below the array
// levels, its home-aware suffix filled.
func (s *space) taskState(root rootNode) *searchState {
	st := newSearchState(s)
	st.applyPrefix(root.decisions)
	st.suffix = make([]contrib, len(s.chains)+1)
	if len(root.decisions) > len(s.arrays) {
		st.fillSuffix()
	}
	return st
}

// searchTask runs the depth-first search below one subtree root. The
// task prunes against the greedy seed and its own incumbent only —
// both independent of scheduling — so its result is a pure function
// of the root. Branch and bound bounds each child before applying it:
// contribAt reads only the contribution tables and the array homes
// already decided, so a child whose bound cannot beat the incumbent is
// skipped without touching the occupancy trackers, and only surviving
// children are applied and checked for feasibility. Below the array
// levels the bound is home-aware: the state refills its suffix for the
// decided homes each time the DFS enters depth len(arrays). A skipped
// child still counts as a visited node for cancellation polling and
// progress. The root, whose bound no parent checked, is checked once
// on entry. Leaves keep the strict improvement rule. The DFS mutates
// one preallocated searchState with apply/undo; its steady state
// allocates nothing — a full Assignment is materialized only when a
// leaf improves the task incumbent.
func (s *space) searchTask(root rootNode) taskResult {
	r := taskResult{score: s.seedScore, complete: true}
	budget := s.opts.MaxStates
	levels := s.levels()
	// visit counts one DFS node and reports whether the periodic
	// poll found the search cancelled.
	visit := func() bool {
		r.nodes++
		if r.nodes&1023 == 0 {
			s.tick()
			return s.cancelled.Load()
		}
		return false
	}
	st := s.taskState(root)
	var dfs func(depth int, acc contrib)
	dfs = func(depth int, acc contrib) {
		if s.cancelled.Load() || visit() {
			return
		}
		if r.states > budget {
			r.complete = false
			return
		}
		if depth == levels {
			// Under branch and bound the parent has already checked
			// this exact leaf score against the incumbent.
			score := st.boundAt(depth, acc)
			r.states++
			s.leaves.Add(1)
			if score < r.score || (!r.found && score <= r.score) {
				r.best, r.score, r.found = st.materialize(), score, true
				s.publishBest(score)
			}
			return
		}
		if depth == len(s.arrays) {
			st.fillSuffix()
		}
		// The incumbent changes only at leaves, so the threshold is
		// refreshed only after a child returns.
		limit := pruneLimit(r.score)
		for oi, nopts := 0, s.optionCount(depth); oi < nopts; oi++ {
			child := acc.plus(st.contribAt(depth, oi))
			// Once the budget is spent a feasible child is still
			// entered, to mark the task incomplete.
			if s.prune && r.states <= budget && st.boundAt(depth+1, child) > limit {
				if visit() {
					return
				}
				continue
			}
			if !st.apply(depth, oi) {
				continue
			}
			dfs(depth+1, child)
			st.undo(depth, oi)
			limit = pruneLimit(r.score)
		}
	}
	depth := len(root.decisions)
	if !s.prune || !s.pruneSubtree(st.boundAt(depth, root.acc), r.score) {
		dfs(depth, root.acc)
	}
	return r
}

// publishBest lowers the shared incumbent score. It feeds progress
// reporting only; see the space doc for why pruning does not read it.
func (s *space) publishBest(score float64) {
	bits := math.Float64bits(score)
	for {
		old := s.bestBits.Load()
		if math.Float64frombits(old) <= score {
			return
		}
		if s.bestBits.CompareAndSwap(old, bits) {
			return
		}
	}
}

// tick runs the periodic bookkeeping of one worker: cancellation
// polling (every 1024 DFS nodes) and progress reporting (every 8192).
func (s *space) tick() {
	if s.ctx.Err() != nil {
		s.cancelled.Store(true)
		return
	}
	n := s.ticks.Add(1)
	if s.opts.Progress != nil && n&7 == 0 {
		s.progressMu.Lock()
		s.opts.Progress(Progress{
			Phase:     PhaseAssign,
			Engine:    s.engine,
			States:    int(s.leaves.Load()),
			BestScore: math.Float64frombits(s.bestBits.Load()),
		})
		s.progressMu.Unlock()
	}
}

// exactSearch explores the full decision space (array homes x chain
// selections) with a parallel depth-first search: the tree is split
// into independent subtree roots fanned over Options.Workers
// goroutines. With prune true it is branch and bound — every task
// prunes against the greedy-seeded incumbent and its own best — and
// without it the exhaustive reference engine. The Result is
// byte-identical at every worker count; exactSearch returns nil if
// ctx is cancelled before the search finishes.
func exactSearch(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options, prune bool) *Result {
	s := newSpace(ctx, ws, plat, opts, prune)
	if prune {
		s.installIncumbents()
	}
	if ctx.Err() != nil {
		return nil
	}
	tasks := s.expandRoots()

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	// Workers pull tasks in index order (one worker runs them
	// sequentially); the merge below reads results in task order.
	results := make([]taskResult, len(tasks))
	var nextTask atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextTask.Add(1)) - 1
				if i >= len(tasks) || s.cancelled.Load() {
					return
				}
				results[i] = s.searchTask(tasks[i])
			}
		}()
	}
	wg.Wait()
	if s.cancelled.Load() || ctx.Err() != nil {
		return nil
	}
	return s.merge(results)
}

// installIncumbents installs branch and bound's starting incumbent:
// the greedy seed, then the warm start (Options.Incumbent), which
// replaces it only when it maps, fits and scores strictly better under
// this platform. Both seeds are feasible leaves, so the returned
// assignment is the same either way and the explored tree can only
// shrink.
func (s *space) installIncumbents() {
	s.seedIncumbent()
	if s.opts.Incumbent != nil {
		s.installSeed(s.opts.Incumbent)
	}
}

// merge folds the task results, in task order, into the search's
// Result.
func (s *space) merge(results []taskResult) *Result {
	// Deterministic merge: strict improvement only, so among equal
	// scores the earliest task — holding the lexicographically first
	// leaf of the sequential DFS order — wins at any worker count.
	var best *Assignment
	bestScore := math.Inf(1)
	states, nodes := 0, 0
	complete := true
	for i := range results {
		states += results[i].states
		nodes += results[i].nodes
		if !results[i].complete {
			complete = false
		}
		if results[i].found && results[i].score < bestScore {
			best, bestScore = results[i].best, results[i].score
		}
	}
	if states > s.opts.MaxStates {
		complete = false
	}
	if best == nil {
		// Pathological cap: every task's budget ran out before a leaf
		// was reached. Fall back to the greedy seed, else to the
		// out-of-the-box baseline.
		complete = false
		if s.seed != nil {
			best = s.seed
		} else {
			best = s.start
		}
	}
	return &Result{
		Assignment: best,
		Cost:       best.Evaluate(EvalOptions{}),
		States:     states,
		Nodes:      nodes,
		Complete:   complete,
		Engine:     s.engine,
	}
}
