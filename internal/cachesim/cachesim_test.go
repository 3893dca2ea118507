package cachesim

import (
	"context"
	"math"
	"testing"

	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/workspace"
)

func testPlat() *platform.Platform {
	return &platform.Platform{
		Name: "test",
		Layers: []platform.Layer{
			{Name: "L1", Capacity: 4096, WordBytes: 2, EnergyRead: 1, EnergyWrite: 1.1,
				LatencyRead: 1, LatencyWrite: 1, BurstBytesPerCycle: 8},
			{Name: "SDRAM", Capacity: 0, WordBytes: 2, EnergyRead: 50, EnergyWrite: 52,
				LatencyRead: 18, LatencyWrite: 18, BurstBytesPerCycle: 4, OffChip: true},
		},
		DMA: &platform.DMA{SetupCycles: 20, Channels: 2, EnergyPerTransfer: 25},
	}
}

func threePlat() *platform.Platform {
	return &platform.Platform{
		Name: "three",
		Layers: []platform.Layer{
			{Name: "L1", Capacity: 1024, WordBytes: 2, EnergyRead: 1, EnergyWrite: 1,
				LatencyRead: 1, LatencyWrite: 1, BurstBytesPerCycle: 8},
			{Name: "L2", Capacity: 8192, WordBytes: 2, EnergyRead: 4, EnergyWrite: 4,
				LatencyRead: 2, LatencyWrite: 2, BurstBytesPerCycle: 8},
			{Name: "SDRAM", Capacity: 0, WordBytes: 2, EnergyRead: 50, EnergyWrite: 52,
				LatencyRead: 18, LatencyWrite: 18, BurstBytesPerCycle: 4, OffChip: true},
		},
		DMA: &platform.DMA{SetupCycles: 20, Channels: 2, EnergyPerTransfer: 25},
	}
}

// seqProgram builds one block reading A[0..n-1] sequentially (elem 4),
// with fixed per-iteration compute.
func seqProgram(t testing.TB, n int) *workspace.Workspace {
	t.Helper()
	a := &model.Array{Name: "A", Dims: []int{n}, ElemSize: 4, Input: true}
	p := &model.Program{
		Name:   "seq",
		Arrays: []*model.Array{a},
		Blocks: []*model.Block{{Name: "b0", Body: []model.Node{
			&model.Loop{Var: "i", Trip: n, Body: []model.Node{
				&model.Access{Array: a, Kind: model.Read, Index: []model.Expr{model.Idx("i")}},
				&model.Compute{Cycles: 2},
			}},
		}}},
	}
	ws, err := workspace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// strideProgram reads A[4*i] (elem 4): consecutive accesses are 16
// bytes apart — a new 16-byte line every access, the stride
// prefetcher's home turf and the next-line prefetcher's blind spot at
// degree 1... (still adjacent lines, so next-line also works; the
// distinguishing case is stride > line, covered by stride4Program).
func strideProgram(t testing.TB, n, stride int) *workspace.Workspace {
	t.Helper()
	a := &model.Array{Name: "A", Dims: []int{n*stride - stride + 1}, ElemSize: 4, Input: true}
	p := &model.Program{
		Name:   "stride",
		Arrays: []*model.Array{a},
		Blocks: []*model.Block{{Name: "b0", Body: []model.Node{
			&model.Loop{Var: "i", Trip: n, Body: []model.Node{
				&model.Access{Array: a, Kind: model.Read, Index: []model.Expr{model.IdxC(stride, "i")}},
			}},
		}}},
	}
	ws, err := workspace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// writeProgram writes A[0..n-1] sequentially.
func writeProgram(t testing.TB, n int) *workspace.Workspace {
	t.Helper()
	a := &model.Array{Name: "A", Dims: []int{n}, ElemSize: 4, Output: true}
	p := &model.Program{
		Name:   "wr",
		Arrays: []*model.Array{a},
		Blocks: []*model.Block{{Name: "b0", Body: []model.Node{
			&model.Loop{Var: "i", Trip: n, Body: []model.Node{
				&model.Access{Array: a, Kind: model.Write, Index: []model.Expr{model.Idx("i")}},
			}},
		}}},
	}
	ws, err := workspace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestSequentialReads: a sequential read stream through a single-level
// cache misses once per line and hits the rest, with exact cycle and
// energy pricing from the platform cost model.
func TestSequentialReads(t *testing.T) {
	ws := seqProgram(t, 64)
	plat := testPlat()
	cfg := Config{Levels: []LevelConfig{{Sets: 16, Ways: 1, LineBytes: 32}}}
	res, err := Simulate(context.Background(), ws, plat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1 := res.Levels[0]
	if res.Accesses != 64 || l1.Accesses != 64 {
		t.Fatalf("accesses %d / L1 %d, want 64", res.Accesses, l1.Accesses)
	}
	// 64 elems x 4 B = 256 B = 8 lines of 32 B.
	if l1.Misses != 8 || l1.Hits != 56 || l1.PrefetchHits != 0 {
		t.Fatalf("L1 hits/misses/pfhits = %d/%d/%d, want 56/8/0", l1.Hits, l1.Misses, l1.PrefetchHits)
	}
	if res.MemoryAccesses != 8 {
		t.Fatalf("memory accesses %d, want 8", res.MemoryAccesses)
	}
	if l1.Evictions != 0 || l1.Writebacks != 0 {
		t.Fatalf("evictions/writebacks = %d/%d, want 0/0", l1.Evictions, l1.Writebacks)
	}
	// Exact pricing: compute + 64 L1 probes + 8 memory accesses +
	// 8 line fills.
	w1 := plat.Layers[0].Words(4)
	wbg := plat.Layers[1].Words(4)
	wantCycles := ws.TotalCompute +
		64*w1*plat.AccessCycles(0, false) +
		8*wbg*plat.AccessCycles(1, false) +
		8*plat.TransferCycles(1, 0, 32)
	if res.Cycles != wantCycles {
		t.Fatalf("cycles %d, want %d", res.Cycles, wantCycles)
	}
	wantEnergy := float64(64)*float64(w1)*plat.AccessEnergy(0, false) +
		float64(8)*float64(wbg)*plat.AccessEnergy(1, false) +
		float64(8)*plat.TransferEnergy(1, 0, 32)
	if diff := res.Energy - wantEnergy; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("energy %v, want %v", res.Energy, wantEnergy)
	}
	if res.ComputeCycles != ws.TotalCompute {
		t.Fatalf("compute cycles %d, want %d", res.ComputeCycles, ws.TotalCompute)
	}
}

// TestWritebackFlush: a pure write stream leaves every line dirty; the
// end-of-trace flush writes them all back exactly once.
func TestWritebackFlush(t *testing.T) {
	ws := writeProgram(t, 64)
	plat := testPlat()
	cfg := Config{Levels: []LevelConfig{{Sets: 16, Ways: 1, LineBytes: 32}}}
	res, err := Simulate(context.Background(), ws, plat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1 := res.Levels[0]
	if l1.Misses != 8 || l1.Hits != 56 {
		t.Fatalf("hits/misses = %d/%d, want 56/8", l1.Hits, l1.Misses)
	}
	if l1.Writebacks != 8 {
		t.Fatalf("writebacks %d, want 8 (flush of every dirty line)", l1.Writebacks)
	}
	if l1.Evictions != 0 {
		t.Fatalf("evictions %d, want 0", l1.Evictions)
	}
}

// TestEvictions: a working set larger than the cache evicts; re-walking
// it misses again (no magic retention).
func TestEvictions(t *testing.T) {
	// 128 elems x 4 B = 512 B footprint vs a 4-line (128 B) cache.
	a := &model.Array{Name: "A", Dims: []int{128}, ElemSize: 4, Input: true}
	p := &model.Program{
		Name:   "evict",
		Arrays: []*model.Array{a},
		Blocks: []*model.Block{{Name: "b0", Body: []model.Node{
			&model.Loop{Var: "r", Trip: 2, Body: []model.Node{
				&model.Loop{Var: "i", Trip: 128, Body: []model.Node{
					&model.Access{Array: a, Kind: model.Read, Index: []model.Expr{model.Idx("i")}},
				}},
			}},
		}}},
	}
	ws, err := workspace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Levels: []LevelConfig{{Sets: 4, Ways: 1, LineBytes: 32}}}
	res, err := Simulate(context.Background(), ws, testPlat(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1 := res.Levels[0]
	// 16 lines per pass, cache holds 4: every line of every pass
	// misses (LRU over a streaming walk), evicting the previous
	// occupant of its set once warm.
	if l1.Misses != 32 {
		t.Fatalf("misses %d, want 32", l1.Misses)
	}
	if l1.Evictions != 28 {
		t.Fatalf("evictions %d, want 28 (32 fills into 4 slots)", l1.Evictions)
	}
}

// TestNextLinePrefetch: on a sequential stream the next-line
// prefetcher converts all but the cold miss into prefetch-buffer hits.
func TestNextLinePrefetch(t *testing.T) {
	ws := seqProgram(t, 64)
	cfg := Config{Levels: []LevelConfig{{
		Sets: 16, Ways: 1, LineBytes: 32,
		Prefetcher: PrefetchNextLine, PrefetchEntries: 8,
	}}}
	res, err := Simulate(context.Background(), ws, testPlat(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1 := res.Levels[0]
	if l1.Misses != 1 {
		t.Fatalf("misses %d, want 1 (only the cold line)", l1.Misses)
	}
	if l1.PrefetchHits != 7 || l1.PrefetchUseful != 7 {
		t.Fatalf("prefetch hits/useful = %d/%d, want 7/7", l1.PrefetchHits, l1.PrefetchUseful)
	}
	if l1.Hits != 56 {
		t.Fatalf("hits %d, want 56", l1.Hits)
	}
	// Lines 1..8 are proposed once each (line 8 past the stream stays
	// unused): accuracy 7/8.
	if l1.PrefetchIssued != 8 {
		t.Fatalf("issued %d, want 8", l1.PrefetchIssued)
	}
	if acc := l1.PrefetchAccuracy(); acc <= 0.87 || acc >= 0.88 {
		t.Fatalf("accuracy %v, want 7/8", acc)
	}
	if l1.PrefetchLate != 0 {
		t.Fatalf("late %d, want 0", l1.PrefetchLate)
	}
	// Demand misses at the last level are the only memory accesses;
	// prefetch fills charge energy, not demand counts.
	if res.MemoryAccesses != 1 {
		t.Fatalf("memory accesses %d, want 1", res.MemoryAccesses)
	}
}

// TestStridePrefetch: a strided stream (one new line per access) is
// covered by the stride predictor after its two-delta warmup.
func TestStridePrefetch(t *testing.T) {
	ws := strideProgram(t, 32, 4) // addresses 0,16,32,... with 16 B lines
	cfg := Config{Levels: []LevelConfig{{
		Sets: 64, Ways: 2, LineBytes: 16,
		Prefetcher: PrefetchStride, PrefetchEntries: 8,
	}}}
	res, err := Simulate(context.Background(), ws, testPlat(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1 := res.Levels[0]
	// Accesses 0,1,2 miss (cold + two-delta warmup: the first
	// proposal fires on access 2 and lands for access 3).
	if l1.Misses != 3 {
		t.Fatalf("misses %d, want 3", l1.Misses)
	}
	if l1.PrefetchHits != 29 {
		t.Fatalf("prefetch hits %d, want 29", l1.PrefetchHits)
	}
	if l1.PrefetchIssued != 30 || l1.PrefetchUseful != 29 {
		t.Fatalf("issued/useful = %d/%d, want 30/29", l1.PrefetchIssued, l1.PrefetchUseful)
	}
}

// TestLatePrefetch: with an arrival latency longer than the demand
// distance, every prefetch is caught in flight — counted late, paying
// the full miss path.
func TestLatePrefetch(t *testing.T) {
	ws := strideProgram(t, 32, 4)
	cfg := Config{Levels: []LevelConfig{{
		Sets: 64, Ways: 2, LineBytes: 16,
		Prefetcher: PrefetchStride, PrefetchEntries: 8, PrefetchLatency: 100,
	}}}
	res, err := Simulate(context.Background(), ws, testPlat(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1 := res.Levels[0]
	if l1.PrefetchHits != 0 {
		t.Fatalf("prefetch hits %d, want 0 (nothing ever arrives in time)", l1.PrefetchHits)
	}
	if l1.PrefetchLate == 0 {
		t.Fatal("no late prefetches counted")
	}
	if l1.Misses != 32 {
		t.Fatalf("misses %d, want 32 (every access pays the miss path)", l1.Misses)
	}
	if l1.Hits+l1.PrefetchHits+l1.Misses != l1.Accesses {
		t.Fatalf("conservation broken: %d+%d+%d != %d", l1.Hits, l1.PrefetchHits, l1.Misses, l1.Accesses)
	}
}

// TestTwoLevelConservation: demand probes cascade exactly — level i+1
// sees level i's misses, memory sees the last level's.
func TestTwoLevelConservation(t *testing.T) {
	ws := seqProgram(t, 256)
	plat := threePlat()
	cfg := Config{Levels: []LevelConfig{
		{Sets: 2, Ways: 1, LineBytes: 32},
		{Sets: 16, Ways: 2, LineBytes: 32},
	}}
	res, err := Simulate(context.Background(), ws, plat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := res.Levels[0], res.Levels[1]
	if l1.Accesses != res.Accesses {
		t.Fatalf("L1 accesses %d != total %d", l1.Accesses, res.Accesses)
	}
	if l2.Accesses != l1.Misses {
		t.Fatalf("L2 accesses %d != L1 misses %d", l2.Accesses, l1.Misses)
	}
	if res.MemoryAccesses != l2.Misses {
		t.Fatalf("memory accesses %d != L2 misses %d", res.MemoryAccesses, l2.Misses)
	}
}

// TestContextCancellation: a canceled context aborts the replay with
// ctx.Err().
func TestContextCancellation(t *testing.T) {
	ws := seqProgram(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Simulate(ctx, ws, testPlat(), Config{})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestValidation: broken configurations are rejected with errors, not
// panics.
func TestValidation(t *testing.T) {
	ws := seqProgram(t, 8)
	plat := testPlat()
	bad := []Config{
		{Levels: []LevelConfig{{Sets: 3, Ways: 1, LineBytes: 32}}},                                    // sets not a power of two
		{Levels: []LevelConfig{{Sets: 4, Ways: 0, LineBytes: 32}}},                                    // no ways
		{Levels: []LevelConfig{{Sets: 4, Ways: 1, LineBytes: 24}}},                                    // line not a power of two
		{Levels: []LevelConfig{{Sets: 4, Ways: 1, LineBytes: 32, Prefetcher: 99}}},                    // unknown prefetcher
		{Levels: []LevelConfig{{Sets: 4, Ways: 1, LineBytes: 32, PrefetchDegree: -1}}},                // negative degree
		{Levels: []LevelConfig{{Sets: 4, Ways: 1, LineBytes: 32}, {Sets: 4, Ways: 1, LineBytes: 32}}}, // more levels than on-chip layers
		{MaxAccesses: -1},
	}
	for i, cfg := range bad {
		if _, err := Simulate(context.Background(), ws, plat, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := Simulate(context.Background(), ws, nil, Config{}); err == nil {
		t.Error("nil platform accepted")
	}
	if _, err := Simulate(context.Background(), nil, plat, Config{}); err == nil {
		t.Error("nil workspace accepted")
	}
}

// TestConfigFor: derived geometries fit the layer capacities.
func TestConfigFor(t *testing.T) {
	cfg := ConfigFor(threePlat(), 0, 0)
	if len(cfg.Levels) != 2 {
		t.Fatalf("levels %d, want 2", len(cfg.Levels))
	}
	plat := threePlat()
	for i, lv := range cfg.Levels {
		size := int64(lv.Sets) * int64(lv.Ways) * int64(lv.LineBytes)
		if size > plat.Layers[i].Capacity {
			t.Errorf("level %d size %d exceeds layer capacity %d", i, size, plat.Layers[i].Capacity)
		}
		if lv.Sets&(lv.Sets-1) != 0 || lv.LineBytes&(lv.LineBytes-1) != 0 {
			t.Errorf("level %d geometry not power of two: %+v", i, lv)
		}
	}
	if err := cfg.Validate(plat); err != nil {
		t.Fatalf("derived config invalid: %v", err)
	}
	// A tiny layer still yields a valid (single-set) geometry.
	tiny := testPlat()
	tiny.Layers[0].Capacity = 64
	cfg = ConfigFor(tiny, 0, 0)
	if err := cfg.Validate(tiny); err != nil {
		t.Fatalf("tiny config invalid: %v", err)
	}
}

// TestFloorPow2: the largest power of two at or below v, up to the
// int64 range's end, where doubling a power of two overflows.
func TestFloorPow2(t *testing.T) {
	for _, c := range []struct{ v, want int64 }{
		{1, 1}, {2, 2}, {3, 2}, {4096, 4096}, {4097, 4096},
		{1<<62 - 1, 1 << 61}, {1 << 62, 1 << 62}, {math.MaxInt64, 1 << 62},
	} {
		if got := floorPow2(c.v); got != c.want {
			t.Errorf("floorPow2(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// A layer that large still derives a geometry within its capacity.
	for _, capacity := range []int64{1 << 62, math.MaxInt64} {
		plat := testPlat()
		plat.Layers[0].Capacity = capacity
		lv := ConfigFor(plat, 0, 0).Levels[0]
		if lv.Sets != 1<<55 || lv.Ways != 4 || lv.LineBytes != 32 {
			t.Errorf("capacity %d: derived %+v, want 2^55 sets x 4 ways x 32 B", capacity, lv)
		}
	}
}

// TestParsePrefetcher: round trip of every kind plus rejection.
func TestParsePrefetcher(t *testing.T) {
	for _, k := range []PrefetcherKind{PrefetchNone, PrefetchNextLine, PrefetchStride} {
		got, err := ParsePrefetcher(k.String())
		if err != nil || got != k {
			t.Errorf("ParsePrefetcher(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParsePrefetcher("markov"); err == nil {
		t.Error("unknown prefetcher parsed")
	}
}

// TestTraceLimit: the shared MaxAccesses guard bounds the replay.
func TestTraceLimit(t *testing.T) {
	ws := seqProgram(t, 64)
	_, err := Simulate(context.Background(), ws, testPlat(), Config{MaxAccesses: 10})
	if err == nil {
		t.Fatal("trace over the access limit simulated")
	}
}
