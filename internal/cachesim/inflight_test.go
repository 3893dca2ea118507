package cachesim

import (
	"context"
	"math"
	"testing"

	"mhla/internal/model"
	"mhla/internal/workspace"
)

// lineProgram reads the given 16-byte lines of one array in order, one
// access site per line outside any loop (elem 4, so line l is element
// 4*l).
func lineProgram(t *testing.T, lines []int) *workspace.Workspace {
	t.Helper()
	a := &model.Array{Name: "A", Dims: []int{64}, ElemSize: 4, Input: true}
	var body []model.Node
	for _, l := range lines {
		body = append(body, &model.Access{Array: a, Kind: model.Read, Index: []model.Expr{model.ConstExpr(4 * l)}})
	}
	p := &model.Program{
		Name:   "lines",
		Arrays: []*model.Array{a},
		Blocks: []*model.Block{{Name: "b0", Body: body}},
	}
	ws, err := workspace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestInflightOvertakeAndReissue pins what an in-flight prefetch does
// when a demand access overtakes it and the same line is issued again
// while the overtaken entry still holds its slot. One-line cache,
// next-line prefetch of degree 1 into a 4-entry window arriving 5
// accesses after issue (an entry issued at access t is usable from
// access t+6):
//
//	t  line  event
//	1  0     miss; issue A=line 1 (arrives for t=7)
//	2  1     A caught in flight: late, miss; issue B=line 2
//	3  4     miss, evicts 1; issue C=line 5
//	4  0     miss, evicts 4; line 1 issued again as D while A is queued
//	5  8     miss; window full, line 9 dropped
//	6  8     hit
//	7  1     A pops and delivers line 1, because D holds it live; the
//	         demand consumes it from the buffer
//	8  2     B delivers; buffer hit; issue E=line 3
//	9  2     C delivers line 5 (never used); hit
//	10 2     D pops with no live entry left for line 1: dropped; hit
//
// So 5 issued (A..E), 2 useful (A, B), 1 late (A), and the stale slot
// A delivered early on D's behalf.
func TestInflightOvertakeAndReissue(t *testing.T) {
	ws := lineProgram(t, []int{0, 1, 4, 0, 8, 8, 1, 2, 2, 2})
	cfg := Config{Levels: []LevelConfig{{
		Sets: 1, Ways: 1, LineBytes: 16,
		Prefetcher: PrefetchNextLine, PrefetchEntries: 4, PrefetchLatency: 5,
	}}}
	res, err := Simulate(context.Background(), ws, testPlat(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	l1 := res.Levels[0]
	want := LevelStats{
		Accesses: 10, Hits: 3, PrefetchHits: 2, Misses: 5, Evictions: 6,
		PrefetchIssued: 5, PrefetchUseful: 2, PrefetchLate: 1,
	}
	if l1.LevelStats != want {
		t.Fatalf("L1 stats %+v, want %+v", l1.LevelStats, want)
	}
	if res.MemoryAccesses != 5 {
		t.Fatalf("memory accesses %d, want 5", res.MemoryAccesses)
	}
	// 10 L1 probes, 5 memory reads and 5 demand fills; the three
	// delivered prefetches (A, B, C) add fill energy but no cycles.
	const wantCycles, wantEnergyBits = 320, 0x40af2cccccccccce
	if res.Cycles != wantCycles {
		t.Errorf("cycles %d, want %d", res.Cycles, wantCycles)
	}
	if got := math.Float64bits(res.Energy); got != wantEnergyBits {
		t.Errorf("energy %v (bits %#x), want bits %#x", res.Energy, got, uint64(wantEnergyBits))
	}
}
