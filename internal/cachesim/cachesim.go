// Package cachesim is a trace-driven hardware cache + prefetch
// simulator: the second backend of the repo, modeling the
// hardware-managed-cache scenario family the software-scratchpad
// models (internal/assign, internal/sim) cannot express.
//
// It replays the dynamic access trace of a program's loop nests — the
// leaf-loop strips of internal/trace, the same traversal internal/sim
// consumes — through a configurable hierarchy of set-associative LRU
// caches (one level per on-chip platform layer, innermost first), each
// with an optional FIFO prefetch buffer fed by a next-line or stride
// prefetcher. It produces per-level hit/miss/eviction/writeback counts
// and prefetch issued/useful/late/accuracy statistics, priced in cycles
// and energy with the existing internal/platform cost model — the same
// AccessCycles/AccessEnergy and TransferCycles/TransferEnergy entry
// points the analytical evaluator charges.
//
// # Cost model
//
// Cache level i is backed by platform layer i; the background layer
// serves misses past the last level. Per demand access:
//
//   - every probed cache level charges one word-weighted access at its
//     layer (Layer.Words of the element size, the analytical
//     evaluator's rounding), the innermost level with the demand kind,
//     deeper probes as reads;
//   - an access served by the background memory charges a word-weighted
//     access there with the demand kind — so with no cache levels
//     configured the simulator reproduces the analytical "original"
//     cost exactly (the cross-model anchor the differential test
//     asserts);
//   - each demand fill charges TransferCycles/TransferEnergy of one
//     line from the parent layer; dirty evictions charge the reverse
//     transfer (write-back), marking the containing parent line dirty
//     when the parent is a cache that holds it;
//   - prefetch fills charge transfer energy on arrival but no cycles —
//     prefetching hides latency, it does not hide energy. A demand
//     access that catches its line still in flight counts as a late
//     prefetch and pays the full miss path.
//
// Addresses are synthetic: arrays are laid out contiguously in
// workspace order (sorted by name), each base aligned to the largest
// configured line size, elements row-major. An access is attributed to
// the line containing its first byte.
//
// # Steady strips
//
// Most leaf-loop iterations touch the lines the previous iteration
// touched, or lines already resident. After replaying an iteration, the
// simulator checks whether it was a fixed point: nothing in flight at
// any level when it started, every access a level-0 hit, and no
// prefetch issued. Such an iteration fills, evicts and delivers nothing,
// and deeper levels are not probed. The following iterations do the
// same for as long as every access hits level 0 and every prefetch
// proposal is filtered as resident or buffered: nothing then changes
// which lines are resident or buffered. The simulator takes that window
// in one step. It walks the sites' line crossings in iteration order
// and stops at the first into a line that is not resident, or whose
// next-line proposals line+1 .. line+degree are neither resident nor
// buffered. A stride proposal addr+q·d is the site's own access q
// iterations later, so with a stride prefetcher the lines must be
// resident through degree iterations past the window, whatever the
// site's confidence. The counts and cycles are added per site. Only the
// recency order and the dirty bits change. Every access hit, so each
// set ends ordered by its lines' last touches, and touching each line
// once in order of its last touch (iteration, site), setting the dirty
// bit for write sites, leaves the same state: the lines sites left, in
// crossing order, then each site's final line, in site order. A window
// in which no site crossed re-hits the lines of the iteration before it
// in the same order, so it changes nothing and costs O(sites); one with
// crossings costs O(crossings), at most sites × level-0 lines. With no
// cache levels every iteration is a fixed point.
//
// # Steady periods
//
// The same fixed point is checked one loop level higher, on a period
// loop: a loop whose body holds only strips (trace.Period). When one
// whole iteration of it started with nothing in flight, hit level 0 on
// every access and issued nothing, the following iterations that touch
// the same level-0 lines, each access moved by its site's Shift, and
// make the same stride proposals repeat it exactly. The simulator adds
// them in O(accesses of one iteration) and sets Period.Skip so the walk
// leaves them out. A stride level needs no warm-up: a skipped
// iteration's proposals land in lines the reference iteration touched
// or proposed, and a lone site's stride entry takes the delta the
// skipped iterations leave, Shift·elem.
//
// The energy is the one float sum, and it must stay bit-identical to
// adding each charge in turn. While the running sum stays inside one
// binade (a fixed ulp u), each += c adds exactly RoundToEven(c/u)·u,
// unless c/u is an exact half-ulp tie. So k repeated iterations add k
// times the same multiple of u. A skip stops at the binade's end, and a
// tie makes the next iteration replay access by access.
//
// The simulator is deterministic by construction: the trace order is
// fixed and all state updates are sequential, so concurrent
// simulations sharing one workspace are byte-identical.
package cachesim

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/trace"
	"mhla/internal/workspace"
)

// LevelConfig describes one cache level.
type LevelConfig struct {
	// Sets is the number of sets; must be a power of two >= 1.
	Sets int
	// Ways is the associativity; must be >= 1.
	Ways int
	// LineBytes is the line size; must be a power of two >= 1.
	LineBytes int
	// Prefetcher selects the prefetch algorithm (default none).
	Prefetcher PrefetcherKind
	// PrefetchEntries bounds the FIFO prefetch buffer (0 with a
	// prefetcher selected means the default of 8).
	PrefetchEntries int
	// PrefetchDegree is the lines proposed per trigger (0 means 1).
	PrefetchDegree int
	// PrefetchLatency is the arrival delay of a prefetch in demand
	// accesses: an issued line becomes usable after this many further
	// accesses (0 = available at the next access).
	PrefetchLatency int
}

// Config configures one simulation run.
type Config struct {
	// Levels are the cache levels, innermost first; level i is backed
	// by platform layer i. Empty means no caches: every access is
	// served by the background memory (the analytical-anchor
	// configuration).
	Levels []LevelConfig
	// MaxAccesses bounds the replayed trace (0 = the shared
	// trace.DefaultMaxAccesses).
	MaxAccesses int64
}

// Validate checks the configuration against a platform.
func (c Config) Validate(plat *platform.Platform) error {
	if plat == nil {
		return fmt.Errorf("cachesim: nil platform")
	}
	if len(plat.Layers) < 2 {
		return fmt.Errorf("cachesim: platform needs at least 2 memory layers, has %d", len(plat.Layers))
	}
	if len(c.Levels) > len(plat.Layers)-1 {
		return fmt.Errorf("cachesim: %d cache levels exceed the platform's %d on-chip layers",
			len(c.Levels), len(plat.Layers)-1)
	}
	if c.MaxAccesses < 0 {
		return fmt.Errorf("cachesim: negative max accesses %d", c.MaxAccesses)
	}
	for i, lv := range c.Levels {
		if lv.Sets < 1 || lv.Sets&(lv.Sets-1) != 0 {
			return fmt.Errorf("cachesim: level %d sets %d must be a power of two >= 1", i, lv.Sets)
		}
		if lv.Ways < 1 {
			return fmt.Errorf("cachesim: level %d ways %d must be >= 1", i, lv.Ways)
		}
		if lv.LineBytes < 1 || lv.LineBytes&(lv.LineBytes-1) != 0 {
			return fmt.Errorf("cachesim: level %d line bytes %d must be a power of two >= 1", i, lv.LineBytes)
		}
		switch lv.Prefetcher {
		case PrefetchNone, PrefetchNextLine, PrefetchStride:
		default:
			return fmt.Errorf("cachesim: level %d has unknown prefetcher %d", i, int(lv.Prefetcher))
		}
		if lv.PrefetchEntries < 0 || lv.PrefetchDegree < 0 || lv.PrefetchLatency < 0 {
			return fmt.Errorf("cachesim: level %d has negative prefetch parameters", i)
		}
	}
	return nil
}

// normalized applies the prefetch defaults and zeroes the prefetch
// fields of levels without a prefetcher (so equal effective
// configurations render equal wire bytes).
func (c Config) normalized() Config {
	out := c
	out.Levels = append([]LevelConfig(nil), c.Levels...)
	for i := range out.Levels {
		lv := &out.Levels[i]
		if lv.Prefetcher == PrefetchNone {
			lv.PrefetchEntries, lv.PrefetchDegree, lv.PrefetchLatency = 0, 0, 0
			continue
		}
		if lv.PrefetchEntries == 0 {
			lv.PrefetchEntries = 8
		}
		if lv.PrefetchDegree == 0 {
			lv.PrefetchDegree = 1
		}
	}
	return out
}

// ConfigFor derives a cache hierarchy matching the platform's on-chip
// layers: one level per on-chip layer with the requested associativity
// (0 = 4 ways) and line size (0 = 32 bytes), the line capped at the
// layer capacity, the associativity capped at capacity/line, and the
// set count the largest power of two fitting sets*ways*line within the
// layer capacity.
func ConfigFor(plat *platform.Platform, ways, lineBytes int) Config {
	if ways <= 0 {
		ways = 4
	}
	if lineBytes <= 0 {
		lineBytes = 32
	}
	var cfg Config
	for _, li := range plat.OnChipLayers() {
		capacity := plat.Layers[li].Capacity
		line := floorPow2(int64(lineBytes))
		if m := floorPow2(capacity); m < line {
			line = m
		}
		w := int64(ways)
		if m := capacity / line; m < w {
			w = m
		}
		sets := floorPow2(capacity / (w * line))
		cfg.Levels = append(cfg.Levels, LevelConfig{
			Sets: int(sets), Ways: int(w), LineBytes: int(line),
		})
	}
	return cfg
}

// floorPow2 returns the largest power of two <= v (v >= 1).
func floorPow2(v int64) int64 {
	return 1 << (63 - bits.LeadingZeros64(uint64(v)))
}

// LevelStats are the counted events of one cache level.
type LevelStats struct {
	// Accesses counts demand probes of the level.
	Accesses int64
	// Hits counts demand hits in the cache proper.
	Hits int64
	// PrefetchHits counts demand accesses served by the prefetch
	// buffer (the consumed line moves into the cache).
	PrefetchHits int64
	// Misses counts demand accesses the level could not serve
	// (Accesses == Hits + PrefetchHits + Misses).
	Misses int64
	// Evictions counts lines displaced by fills; Writebacks counts the
	// dirty ones (plus the end-of-trace flush).
	Evictions  int64
	Writebacks int64
	// PrefetchIssued/PrefetchUseful/PrefetchLate count prefetches
	// issued, consumed by a demand access, and caught still in flight
	// by the demand access they were meant to hide.
	PrefetchIssued int64
	PrefetchUseful int64
	PrefetchLate   int64
}

// PrefetchAccuracy is PrefetchUseful/PrefetchIssued (0 when nothing
// was issued).
func (s LevelStats) PrefetchAccuracy() float64 {
	if s.PrefetchIssued == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / float64(s.PrefetchIssued)
}

// LevelResult is one cache level of a Result: its configuration, the
// platform layer backing it and the counted events.
type LevelResult struct {
	// Layer is the name of the platform layer backing the level.
	Layer string
	LevelConfig
	LevelStats
}

// Result is the outcome of one simulation run.
type Result struct {
	// Program and Platform identify the run.
	Program  string
	Platform string
	// Config is the normalized configuration that ran.
	Config Config
	// Levels holds one entry per cache level, innermost first.
	Levels []LevelResult
	// Accesses is the total demand accesses replayed; MemoryAccesses
	// counts the ones served by the background memory.
	Accesses       int64
	MemoryAccesses int64
	// ComputeCycles is the program's pure-compute cycle count
	// (workspace.TotalCompute); Cycles adds the priced memory time.
	ComputeCycles int64
	Cycles        int64
	// Energy is the total priced energy in pJ.
	Energy float64
}

// inflightLine is one issued, not-yet-arrived prefetch. Arrivals are
// indexed in demand accesses, monotone in issue order (fixed per-level
// latency), so a FIFO queue delivers deterministically. live is
// cleared when a late demand access overtakes the entry or another
// entry of its line delivers; a dead entry keeps its slot until its
// arrival, so it still counts against the window.
type inflightLine struct {
	line    int64
	arrival int64
	live    bool
}

// inflightRing is the FIFO of one level's issued prefetches: a fixed
// ring of PrefetchEntries slots, so a replay allocates nothing per
// prefetch. At most one live entry holds a line: issue refuses a line
// some live entry holds.
type inflightRing struct {
	slots   []inflightLine
	head, n int
}

func (r *inflightRing) full() bool { return r.n == len(r.slots) }

func (r *inflightRing) push(line, arrival int64) {
	i := r.head + r.n
	if i >= len(r.slots) {
		i -= len(r.slots)
	}
	r.slots[i] = inflightLine{line: line, arrival: arrival, live: true}
	r.n++
}

// due reports whether the oldest entry arrived before access now.
func (r *inflightRing) due(now int64) bool {
	return r.n > 0 && r.slots[r.head].arrival < now
}

// popArrived removes and returns the oldest entry if it arrived
// before access now.
func (r *inflightRing) popArrived(now int64) (inflightLine, bool) {
	if !r.due(now) {
		return inflightLine{}, false
	}
	fl := r.slots[r.head]
	r.head++
	if r.head == len(r.slots) {
		r.head = 0
	}
	r.n--
	return fl, true
}

// find returns the live queued entry holding line, or nil.
func (r *inflightRing) find(line int64) *inflightLine {
	for k, i := 0, r.head; k < r.n; k++ {
		if e := &r.slots[i]; e.live && e.line == line {
			return e
		}
		if i++; i == len(r.slots) {
			i = 0
		}
	}
	return nil
}

// level is the live state of one cache level during a run.
type level struct {
	cfg       LevelConfig
	layer     int // backing platform layer
	lineShift uint
	cache     *cache
	pfb       *prefetchBuffer
	inflight  inflightRing
	stride    []strideEntry // stride predictor state, indexed by site position
	stats     LevelStats
	// fill and writeback price one line moving from and to the parent
	// layer (the next level's, or the background layer); arrival[src] is the energy of a prefetched line arriving
	// from platform layer src, set for every layer deeper than this one.
	fill, writeback charge
	arrival         []float64
}

// charge is one priced word-weighted CPU access, or one line transfer.
type charge struct {
	cycles int64
	energy float64
}

// siteInfo is the per-site table of a run, indexed by the trace's
// document-order Position.
type siteInfo struct {
	base  int64 // synthetic base address of the site's array
	elem  int64 // element size in bytes
	write bool
	// probe[i] prices the probe of cache level i (the demand kind at
	// level 0, a read deeper); mem prices a background access with
	// the demand kind.
	probe []charge
	mem   charge
}

// simState is the whole run state.
type simState struct {
	plat   *platform.Platform
	levels []*level
	bg     int
	sites  []siteInfo

	accesses int64
	memory   int64
	cycles   int64
	energy   float64

	// stepped counts the accesses replayed one at a time, the rest
	// having been skipped in steady strips or periods, and periods the
	// period iterations skipped. charges is the skips' scratch of the
	// per-site energies of one strip or one period body.
	stepped, periods int64
	charges          []repeated
	// runs is the strip skip's scratch of per-site line walks.
	runs []siteRun
	// period is the replay state when the current period iteration's
	// first strip began.
	period mark
}

// mark is the replay state a fixed-point check compares against:
// whether nothing was in flight at any level, and level 0's Hits and
// PrefetchIssued.
type mark struct {
	idle         bool
	hits, issued int64
}

func newSimState(ws *workspace.Workspace, plat *platform.Platform, cfg Config) *simState {
	refs := ws.Program.Accesses()
	st := &simState{
		plat: plat,
		bg:   plat.Background(),
	}
	for i, lv := range cfg.Levels {
		parent := st.bg
		if i+1 < len(cfg.Levels) {
			parent = i + 1
		}
		l := &level{
			cfg:       lv,
			layer:     i,
			lineShift: uint(log2(int64(lv.LineBytes))),
			cache:     newCache(lv.Sets, lv.Ways),
		}
		bytes := int64(lv.LineBytes)
		l.fill = charge{plat.TransferCycles(parent, i, bytes), plat.TransferEnergy(parent, i, bytes)}
		l.writeback = charge{plat.TransferCycles(i, parent, bytes), plat.TransferEnergy(i, parent, bytes)}
		if lv.Prefetcher != PrefetchNone {
			l.pfb = newPrefetchBuffer(lv.PrefetchEntries)
			l.inflight.slots = make([]inflightLine, lv.PrefetchEntries)
			if lv.Prefetcher == PrefetchStride {
				l.stride = make([]strideEntry, len(refs))
			}
			l.arrival = make([]float64, len(plat.Layers))
			for src := i + 1; src < len(plat.Layers); src++ {
				l.arrival[src] = plat.TransferEnergy(src, i, bytes)
			}
		}
		st.levels = append(st.levels, l)
	}

	// Synthetic layout: arrays contiguous in workspace (name) order,
	// bases aligned to the largest configured line size.
	align := int64(1)
	for _, lv := range cfg.Levels {
		if int64(lv.LineBytes) > align {
			align = int64(lv.LineBytes)
		}
	}
	bases := make([]int64, len(ws.Arrays))
	next := int64(0)
	for i, arr := range ws.Arrays {
		next = (next + align - 1) / align * align
		bases[i] = next
		next += arr.Bytes()
	}

	// Per-site tables: address base, element size and the priced
	// probes, so the replay reads slots instead of keying maps.
	nlev := len(cfg.Levels)
	probes := make([]charge, len(refs)*nlev)
	st.sites = make([]siteInfo, len(refs))
	st.charges = make([]repeated, len(refs))
	st.runs = make([]siteRun, len(refs))
	for _, ref := range refs {
		arr, write := ref.Access.Array, ref.Access.Kind == model.Write
		s := &st.sites[ref.Position]
		s.base, s.elem, s.write = bases[ws.ArrayIndex[arr.Name]], int64(arr.ElemSize), write
		s.probe = probes[ref.Position*nlev : (ref.Position+1)*nlev]
		for i := range cfg.Levels {
			s.probe[i] = st.price(i, arr.ElemSize, write && i == 0)
		}
		s.mem = st.price(st.bg, arr.ElemSize, write)
	}
	return st
}

// price is one word-weighted CPU access at a layer.
func (st *simState) price(layer, elemSize int, write bool) charge {
	w := st.plat.Layers[layer].Words(int64(elemSize))
	return charge{
		cycles: w * st.plat.AccessCycles(layer, write),
		energy: float64(w) * st.plat.AccessEnergy(layer, write),
	}
}

func (st *simState) pay(c charge) {
	st.cycles += c.cycles
	st.energy += c.energy
}

// access replays one demand access of the trace: site pos touching
// element lin of its array.
func (st *simState) access(pos int, lin int64) {
	st.accesses++
	now := st.accesses
	for i, lv := range st.levels {
		if lv.inflight.due(now) {
			st.deliver(i, now)
		}
	}

	s := &st.sites[pos]
	addr := s.base + lin*s.elem
	write := s.write

	// Probe down the hierarchy.
	served := len(st.levels) // first level holding the line; len = memory
	for i, lv := range st.levels {
		line := addr >> lv.lineShift
		lv.stats.Accesses++
		st.pay(s.probe[i])
		if lv.cache.access(line, write && i == 0) {
			lv.stats.Hits++
			served = i
			break
		}
		if lv.pfb != nil {
			if e := lv.inflight.find(line); e != nil {
				// The prefetch meant to hide this access has not
				// arrived: late. The demand pays the full miss path;
				// the in-flight entry is wasted.
				lv.stats.PrefetchLate++
				e.live = false
			} else if lv.pfb.consume(line) {
				lv.stats.PrefetchHits++
				lv.stats.PrefetchUseful++
				st.install(i, line, write && i == 0)
				served = i
				break
			}
		}
		lv.stats.Misses++
	}
	if served == len(st.levels) {
		st.memory++
		st.pay(s.mem)
	}

	// Fill the missed levels outside-in (the serving level already
	// holds the line — a prefetch-buffer consume installed its own).
	for i := served - 1; i >= 0; i-- {
		lv := st.levels[i]
		st.pay(lv.fill)
		st.install(i, addr>>lv.lineShift, write && i == 0)
	}

	// Prefetchers observe every probed level.
	for i := 0; i <= served && i < len(st.levels); i++ {
		if lv := st.levels[i]; lv.pfb != nil {
			lv.observe(pos, addr, addr>>lv.lineShift, now)
		}
	}
}

// install fills a line into level i, pricing a dirty eviction as a
// write-back to the parent.
func (st *simState) install(i int, line int64, dirty bool) {
	lv := st.levels[i]
	victim, vdirty, evicted := lv.cache.fill(line, dirty)
	if !evicted {
		return
	}
	lv.stats.Evictions++
	if !vdirty {
		return
	}
	st.writeback(i, victim)
}

// writeback prices one dirty line of level i moving to its parent,
// marking the containing parent line dirty when the parent is a cache
// that holds it (no write-allocate on write-back).
func (st *simState) writeback(i int, line int64) {
	lv := st.levels[i]
	lv.stats.Writebacks++
	st.pay(lv.writeback)
	if i+1 < len(st.levels) {
		next := st.levels[i+1]
		next.cache.markDirty((line << lv.lineShift) >> next.lineShift)
	}
}

// issue enqueues a prefetch proposal unless it is useless (already
// resident, buffered or in flight) or the in-flight window is full.
func (lv *level) issue(line int64, now int64) {
	if line < 0 {
		return
	}
	if lv.cache.contains(line) || lv.pfb.contains(line) || lv.inflight.find(line) != nil {
		return
	}
	if lv.inflight.full() {
		return
	}
	lv.stats.PrefetchIssued++
	lv.inflight.push(line, now+int64(lv.cfg.PrefetchLatency))
}

// deliver moves arrived prefetches of level i into its buffer,
// charging the (cycle-hidden) fill energy from the innermost deeper
// level holding the line. An arrival delivers when a live entry holds
// its line — its own, or a later re-issue of a line a late demand
// overtook — and clears that entry.
func (st *simState) deliver(i int, now int64) {
	lv := st.levels[i]
	for {
		fl, ok := lv.inflight.popArrived(now)
		if !ok {
			return
		}
		if !fl.live {
			e := lv.inflight.find(fl.line)
			if e == nil {
				continue // overtaken, or delivered by an earlier slot
			}
			e.live = false
		}
		if lv.cache.contains(fl.line) || lv.pfb.contains(fl.line) {
			continue // redundant by arrival time
		}
		st.energy += lv.arrival[st.sourceLayer(i, fl.line)]
		lv.pfb.push(fl.line)
	}
}

// sourceLayer is the platform layer a prefetch of level i's line is
// served from at arrival time: the innermost deeper cache level
// holding the line, else the background memory.
func (st *simState) sourceLayer(i int, line int64) int {
	addr := line << st.levels[i].lineShift
	for j := i + 1; j < len(st.levels); j++ {
		if st.levels[j].cache.contains(addr >> st.levels[j].lineShift) {
			return st.levels[j].layer
		}
	}
	return st.bg
}

// flush drains every dirty line at end of trace, innermost level
// first so dirt cascades to the background memory.
func (st *simState) flush() {
	for i := range st.levels {
		st.levels[i].cache.eachDirty(func(line int64) { st.writeback(i, line) })
	}
}

// iterate replays iteration it of strip s access by access and, when
// that iteration left the replay at a fixed point, skips the steady
// iterations after it. It returns the iterations consumed (>= 1). An
// iteration that starts with nothing in flight, hits level 0 on every
// access and issues nothing there also ends with nothing in flight:
// no deeper level is probed, so none issues either.
func (st *simState) iterate(s *trace.Strip, it, trip int64) int64 {
	var m mark
	if it+1 < trip { // a skip needs iterations left
		m = st.mark()
	}
	for j := range s.Sites {
		ss := &s.Sites[j]
		st.access(ss.Position, ss.Linear+it*ss.Step)
	}
	st.stepped += int64(len(s.Sites))
	if !st.steadySince(m, int64(len(s.Sites))) {
		return 1
	}
	return 1 + st.skip(s, it, trip-it-1)
}

// mark takes the replay state a fixed-point check starts from.
func (st *simState) mark() mark {
	m := mark{idle: true}
	for _, lv := range st.levels {
		if lv.inflight.n > 0 {
			m.idle = false
		}
	}
	if len(st.levels) > 0 {
		m.hits, m.issued = st.levels[0].stats.Hits, st.levels[0].stats.PrefetchIssued
	}
	return m
}

// steadySince reports whether the n accesses replayed since m were a
// fixed point: nothing was in flight at m, level 0 hit every access and
// issued nothing.
func (st *simState) steadySince(m mark, n int64) bool {
	if !m.idle {
		return false
	}
	if len(st.levels) == 0 {
		return true
	}
	l0 := &st.levels[0].stats
	return l0.Hits-m.hits == n && l0.PrefetchIssued == m.issued
}

// skip jumps over up to left iterations after iteration it of strip s,
// which replayed at a fixed point (see Steady strips in the package
// doc), and returns how many it skipped. It stops before the first line
// crossing the window cannot take (crossRun), and where the energy sum
// could not take another round exactly (repeatAdd). A window in which
// some site crossed then replays its recency effect (touchWindow).
func (st *simState) skip(s *trace.Strip, it, left int64) int64 {
	var l0 *level
	if len(st.levels) > 0 {
		l0 = st.levels[0]
	}
	k := left
	charges := st.charges[:len(s.Sites)]
	runs := st.runs[:len(s.Sites)]
	next := 0 // the site crossing first
	var cycles int64
	for j := range s.Sites {
		ss := &s.Sites[j]
		si := &st.sites[ss.Position]
		c := si.mem
		if l0 != nil {
			c = si.probe[0]
			r := &runs[j]
			r.addr, r.d, r.write = si.base+(ss.Linear+it*ss.Step)*si.elem, ss.Step*si.elem, si.write
			r.seed(l0.lineShift)
			if r.at < runs[next].at {
				next = j
			}
		}
		charges[j] = repeated{c.energy, 1}
		cycles += c.cycles
	}
	var first int64 // the step of the window's first crossing
	if l0 != nil {
		first = runs[next].at
		if k = l0.crossRun(runs, next, k); k == 0 {
			return 0
		}
	}
	if st.energy, k = repeatAdd(st.energy, charges, k); k == 0 {
		return 0
	}
	n := k * int64(len(s.Sites))
	st.accesses += n
	st.cycles += k * cycles
	if l0 == nil {
		st.memory += n
		return k
	}
	l0.stats.Accesses += n
	l0.stats.Hits += n
	if first <= k {
		l0.touchWindow(runs, k)
	}
	if l0.stride != nil {
		for j := range s.Sites {
			r := &runs[j]
			e := &l0.stride[s.Sites[j].Position]
			e.last, e.stride = r.addr+k*r.d, r.d
		}
	}
	return k
}

// siteRun is one site's walk across level-0 lines in a steady strip
// window, in steps counted from the reference iteration: the site's
// access at step t is at byte addr+t·d. line is the line it is in
// before step at, where it next enters another line (MaxInt64 when d
// is 0: never).
type siteRun struct {
	addr, d  int64
	at, line int64
	write    bool
}

// seed starts the walk at the reference iteration.
func (r *siteRun) seed(shift uint) {
	r.line, r.at = r.addr>>shift, math.MaxInt64
	if r.d != 0 {
		r.at = lineRun(r.addr, r.d, shift) + 1
	}
}

// entering is the line the site enters at step at.
func (r *siteRun) entering(shift uint) int64 { return (r.addr + r.at*r.d) >> shift }

// cross moves the site into the line it enters at step at.
func (r *siteRun) cross(shift uint) {
	a := r.addr + r.at*r.d
	r.line = a >> shift
	r.at += lineRun(a, r.d, shift) + 1
}

// nextCrossing is the index of the site crossing next, the first in
// site order among those crossing at the same step: the order of the
// crossings in the trace.
func nextCrossing(runs []siteRun) int {
	j := 0
	for i := 1; i < len(runs); i++ {
		if runs[i].at < runs[j].at {
			j = i
		}
	}
	return j
}

// crossRun bounds k by how many iterations after the reference one the
// window of a steady strip can skip, walking the sites' line crossings
// in trace order from site next's. A skipped iteration must hit level 0
// on every access and issue nothing, so every line a site enters must
// be enterable. A stride proposal addr+q·d is the site's own access q
// steps later, so with a stride prefetcher the lines through step
// k+degree must be: every proposal is then filtered as resident,
// whether the site's deltas agree or not.
func (lv *level) crossRun(runs []siteRun, next int, k int64) int64 {
	var ahead int64
	if lv.stride != nil {
		ahead = int64(lv.cfg.PrefetchDegree)
	}
	for {
		r := &runs[next]
		if r.at > k+ahead {
			return k
		}
		if !lv.enterable(r.entering(lv.lineShift)) {
			return max(0, r.at-1-ahead)
		}
		r.cross(lv.lineShift)
		next = nextCrossing(runs)
	}
}

// enterable reports whether a skipped iteration may step into line: it
// is resident (a negative line never is), and every line a next-line
// prefetcher proposes from it is resident or buffered. Nothing is in
// flight during a steady window, so that filters every proposal.
func (lv *level) enterable(line int64) bool {
	if line < 0 || !lv.cache.contains(line) {
		return false
	}
	if lv.cfg.Prefetcher == PrefetchNextLine {
		for q := int64(1); q <= int64(lv.cfg.PrefetchDegree); q++ {
			if !lv.cache.contains(line+q) && !lv.pfb.contains(line+q) {
				return false
			}
		}
	}
	return true
}

// touchWindow replays the recency effect of k skipped iterations in
// which some site crossed into another line. Every access hit, so each
// set ends ordered by its lines' last touches: touching each line once,
// in order of its last touch (iteration, site), leaves the same order.
// That is each line a site left, in crossing order, then each site's
// final line, in site order; a write site sets the dirty bit.
func (lv *level) touchWindow(runs []siteRun, k int64) {
	for j := range runs {
		runs[j].seed(lv.lineShift)
	}
	for {
		r := &runs[nextCrossing(runs)]
		if r.at > k {
			break
		}
		lv.cache.access(r.line, r.write)
		r.cross(lv.lineShift)
	}
	for j := range runs {
		lv.cache.access(runs[j].line, runs[j].write)
	}
}

// skipPeriod jumps over up to the iterations left after the current
// iteration of period p, when that iteration replayed at a fixed point
// (see Steady periods in the package doc), and returns how many it
// skipped. It stops where an access's level-0 line or a stride proposal
// moves (shiftRun), and where the energy sum could not take another
// round exactly (repeatAdd). Each site's stride entry then moves its
// last address by k·Shift·elem. A lone site's stride becomes
// Shift·elem, the delta every skipped iteration leaves; the reference
// iteration left another one if it was its loop entry's first. A leaf
// strip's site leaves Step·elem either way.
func (st *simState) skipPeriod(p *trace.Period) int64 {
	left := int64(p.Trip - p.Iter - 1)
	if left <= 0 {
		return 0
	}
	var n int64 // accesses per iteration
	for _, s := range p.Strips {
		n += int64(s.Trip) * int64(len(s.Sites))
	}
	if !st.steadySince(st.period, n) {
		return 0
	}
	var l0 *level
	if len(st.levels) > 0 {
		l0 = st.levels[0]
	}
	k := left
	charges := st.charges[:0]
	var cycles int64
	for _, s := range p.Strips {
		trip := int64(s.Trip)
		for j := range s.Sites {
			ss := &s.Sites[j]
			si := &st.sites[ss.Position]
			c := si.mem
			if l0 != nil {
				c = si.probe[0]
				if k = l0.shiftRun(k, si, ss, trip); k == 0 {
					return 0
				}
			}
			charges = append(charges, repeated{c.energy, trip})
			cycles += trip * c.cycles
		}
	}
	if st.energy, k = repeatAdd(st.energy, charges, k); k == 0 {
		return 0
	}
	st.periods += k
	n *= k
	st.accesses += n
	st.cycles += k * cycles
	if l0 == nil {
		st.memory += n
		return k
	}
	l0.stats.Accesses += n
	l0.stats.Hits += n
	if l0.stride != nil {
		for _, s := range p.Strips {
			for j := range s.Sites {
				ss := &s.Sites[j]
				e, delta := &l0.stride[ss.Position], ss.Shift*st.sites[ss.Position].elem
				e.last += k * delta
				if s.Trip == 1 {
					e.stride = delta
				}
			}
		}
	}
	return k
}

// shiftRun bounds k by how many further period iterations keep each
// access of site ss, and at a stride level each proposal addr+q·d, in
// the same level-0 line; every period iteration moves them by
// Shift·elem. The access's delta d is Step·elem inside the strip entry
// of trip iterations, and at its first iteration the distance from the
// previous period iteration's last access. With those lines fixed,
// every proposal of a skipped iteration lands in a line the reference
// iteration touched or proposed, even when the reference iteration was
// its loop entry's first: a proposal the reference iteration did not
// make has d equal to Step·elem, so it lands on the accesses'
// arithmetic chain, whose points these bounds keep in accessed lines.
func (lv *level) shiftRun(k int64, si *siteInfo, ss *trace.StripSite, trip int64) int64 {
	delta := ss.Shift * si.elem
	if delta == 0 {
		return k
	}
	addr, step := si.base+ss.Linear*si.elem, ss.Step*si.elem
	d := delta - (trip-1)*step
	for t := int64(0); t < trip && k > 0; t++ {
		k = min(k, lineRun(addr, delta, lv.lineShift))
		if lv.stride != nil && d != 0 {
			for q := int64(1); q <= int64(lv.cfg.PrefetchDegree); q++ {
				k = min(k, lineRun(addr+q*d, delta, lv.lineShift))
			}
		}
		if step == 0 {
			break // every later access repeats this one and proposes nothing
		}
		addr, d = addr+step, step
	}
	return k
}

// lineRun is how many further steps of d bytes from addr stay in addr's
// line of 1<<shift bytes.
func lineRun(addr, d int64, shift uint) int64 {
	switch {
	case (addr+d)>>shift != addr>>shift:
		return 0 // the common failure, decided without a division
	case d > 0:
		return ((addr>>shift+1)<<shift - 1 - addr) / d
	case d < 0:
		return (addr - addr>>shift<<shift) / -d
	}
	return math.MaxInt64
}

// repeated is a charge c added n times in each round of repeatAdd.
type repeated struct {
	c float64
	n int64
}

// repeatAdd returns x after n rounds of adding every charge of cs its
// count of times, in any order, and the rounds n <= k it took,
// bit-identical to running them. While the running sum stays inside one
// binade of ulp u, each x += c adds exactly RoundToEven(c/u)·u whatever
// the order, so a round adds a fixed R·u and n rounds add n·R·u. It
// stops before the round that would leave the binade, and takes no
// round at all when some charge is an exact half-ulp tie (whose
// rounding depends on the sum's last bit) or when x or a charge is
// negative or not finite.
func repeatAdd(x float64, cs []repeated, k int64) (float64, int64) {
	const mant = 1 << 53 // a binade of ulp u ends at mant·u
	if !(x >= 0 && x <= math.MaxFloat64) {
		return x, 0
	}
	// u = 2^(E-1075) for x's biased exponent E; zero, the subnormals
	// and the first normal binade share E = 1, u = 2^-1074.
	var u float64
	if e := max(math.Float64bits(x)>>52, 1); e > 52 {
		u = math.Float64frombits((e - 52) << 52)
	} else {
		u = math.Float64frombits(1 << (e - 1)) // a subnormal
	}
	hi := u * mant
	var r int64
	for _, c := range cs {
		if !(c.c >= 0 && c.c < hi) {
			return x, 0
		}
		q := c.c / u
		if q-math.Floor(q) == 0.5 {
			return x, 0
		}
		if rq := int64(math.RoundToEven(q)); rq > 0 {
			if over, add := bits.Mul64(uint64(c.n), uint64(rq)); over != 0 || add > uint64(mant-1-r) {
				return x, 0 // the round alone would leave the binade
			}
			r += c.n * rq
		}
	}
	if r == 0 {
		return x, k
	}
	xu := int64(x / u)
	if over, add := bits.Mul64(uint64(k), uint64(r)); over != 0 || add > uint64(mant-1-xu) {
		k = (mant - 1 - xu) / r
	}
	return float64(xu+k*r) * u, k
}

// Simulate replays the program's access trace through the configured
// hierarchy. It reuses the compiled workspace's tables (array order,
// compute totals) and honors ctx: cancellation aborts the replay
// promptly. The result is deterministic: equal inputs produce equal
// results, bit for bit.
func Simulate(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, cfg Config) (*Result, error) {
	if ws == nil {
		return nil, fmt.Errorf("cachesim: nil workspace")
	}
	if err := cfg.Validate(plat); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	st, err := replay(ctx, ws, plat, cfg)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Program:        ws.Program.Name,
		Platform:       plat.Name,
		Config:         cfg,
		Accesses:       st.accesses,
		MemoryAccesses: st.memory,
		ComputeCycles:  ws.TotalCompute,
		Cycles:         ws.TotalCompute + st.cycles,
		Energy:         st.energy,
	}
	for _, lv := range st.levels {
		res.Levels = append(res.Levels, LevelResult{
			Layer:       plat.Layers[lv.layer].Name,
			LevelConfig: lv.cfg,
			LevelStats:  lv.stats,
		})
	}
	return res, nil
}

// replay runs the trace of a validated, normalized configuration
// through a fresh simState and flushes it.
func replay(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, cfg Config) (*simState, error) {
	st := newSimState(ws, plat, cfg)
	const checkEvery = 1 << 16 // ctx poll interval in accesses
	var ctxErr error
	poll := int64(0) // access count at which ctx is polled next
	err := trace.WalkStrips(ws.Program, trace.Options{MaxAccesses: cfg.MaxAccesses}, func(s *trace.Strip) bool {
		p := s.Period
		if p != nil && s == p.Strips[0] {
			st.period = st.mark()
		}
		for it, trip := int64(0), int64(s.Trip); it < trip; {
			if st.accesses >= poll {
				if ctxErr = ctx.Err(); ctxErr != nil {
					return false
				}
				poll = st.accesses + checkEvery
			}
			it += st.iterate(s, it, trip)
		}
		if p != nil && s == p.Strips[len(p.Strips)-1] {
			p.Skip = int(st.skipPeriod(p))
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("cachesim: %w", err)
	}
	if ctxErr != nil {
		return nil, ctxErr
	}
	st.flush()
	return st, nil
}
