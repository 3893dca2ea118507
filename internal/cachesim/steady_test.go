package cachesim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/energy"
	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/trace"
	"mhla/internal/workspace"
)

// referenceSimulate is Simulate before steady strips: every access of
// every strip iteration replayed one at a time. The steady-strip skip
// must reproduce it bit for bit.
func referenceSimulate(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, cfg Config) (*Result, error) {
	if ws == nil {
		return nil, fmt.Errorf("cachesim: nil workspace")
	}
	if err := cfg.Validate(plat); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	st := newSimState(ws, plat, cfg)

	const checkEvery = 1 << 16 // ctx poll interval in accesses
	var ctxErr error
	poll := int64(0) // access count at which ctx is polled next
	err := trace.WalkStrips(ws.Program, trace.Options{MaxAccesses: cfg.MaxAccesses}, func(s *trace.Strip) bool {
		for it := int64(0); it < int64(s.Trip); it++ {
			if st.accesses >= poll {
				if ctxErr = ctx.Err(); ctxErr != nil {
					return false
				}
				poll = st.accesses + checkEvery
			}
			for j := range s.Sites {
				ss := &s.Sites[j]
				st.access(ss.Position, ss.Linear+it*ss.Step)
			}
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

// poolApps are the applications of the /v1/simulate benchmark pool.
var poolApps = []string{"qsdpcm", "wavelet", "durbin", "voice", "dab"}

// matchReference requires Simulate and referenceSimulate to render the
// same Result.JSON bytes.
func matchReference(t *testing.T, name string, ws *workspace.Workspace, plat *platform.Platform, cfg Config) {
	t.Helper()
	var body [2][]byte
	for i, run := range []func(context.Context, *workspace.Workspace, *platform.Platform, Config) (*Result, error){Simulate, referenceSimulate} {
		res, err := run(context.Background(), ws, plat, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if body[i], err = res.JSON(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(body[0], body[1]) {
		t.Errorf("%s: steady-strip replay differs from the per-access reference:\n got %s\nwant %s", name, body[0], body[1])
	}
}

// seededConfig draws a cache hierarchy for plat from rng: 1-8 ways,
// 1-128 byte lines, and at every level but the first (whose prefetcher
// is kind) a random prefetcher with 1-8 entries, degree 1-3 and latency
// 0-8.
func seededConfig(rng *rand.Rand, plat *platform.Platform, kind PrefetcherKind) Config {
	cfg := ConfigFor(plat, 1+rng.Intn(8), 1<<rng.Intn(8))
	for i := range cfg.Levels {
		lv := &cfg.Levels[i]
		lv.Prefetcher = kind
		if i > 0 {
			lv.Prefetcher = PrefetcherKind(rng.Intn(3))
		}
		if lv.Prefetcher != PrefetchNone {
			lv.PrefetchEntries, lv.PrefetchDegree, lv.PrefetchLatency = 1+rng.Intn(8), 1+rng.Intn(3), rng.Intn(9)
		}
	}
	return cfg
}

// reverseProgram walks arrays backwards and by strides against 1- and
// 2-byte elements: negative steps, several sites per line and sites
// stepping a whole line or more per iteration.
func reverseProgram(t *testing.T) *workspace.Workspace {
	t.Helper()
	a := &model.Array{Name: "A", Dims: []int{256}, ElemSize: 1, Input: true}
	b := &model.Array{Name: "B", Dims: []int{16, 64}, ElemSize: 2, Output: true}
	back := func(c, coef int) model.Expr { return model.Expr{Const: c, Terms: []model.Term{{Var: "i", Coef: coef}}} }
	p := &model.Program{
		Name:   "reverse",
		Arrays: []*model.Array{a, b},
		Blocks: []*model.Block{{Name: "b0", Body: []model.Node{
			&model.Loop{Var: "r", Trip: 4, Body: []model.Node{
				&model.Loop{Var: "i", Trip: 64, Body: []model.Node{
					&model.Access{Array: a, Kind: model.Read, Index: []model.Expr{back(255, -1)}},
					&model.Access{Array: a, Kind: model.Read, Index: []model.Expr{back(252, -3)}},
					&model.Access{Array: b, Kind: model.Write, Index: []model.Expr{model.Idx("r"), back(63, -1)}},
					&model.Access{Array: b, Kind: model.Read, Index: []model.Expr{model.IdxC(2, "r"), model.ConstExpr(5)}},
				}},
				&model.Loop{Var: "i", Trip: 16, Body: []model.Node{
					&model.Access{Array: b, Kind: model.Read, Index: []model.Expr{back(15, -1), model.Idx("r")}},
				}},
			}},
		}}},
	}
	ws, err := workspace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// periodProgram builds period loops of every shape: wavelet-style row
// and column passes (a leaf strip of taps and two lone stores per
// iteration, the row pass re-entered by an outer loop) over 1-, 2- and
// 4-byte elements, and a period whose body reads backwards (negative
// shifts and steps), reads one element every iteration (zero shift),
// writes a row apart every iteration (shifts of 80 bytes, larger than
// most lines) and holds a one-iteration leaf strip.
func periodProgram(t *testing.T) *workspace.Workspace {
	t.Helper()
	img := &model.Array{Name: "img", Dims: []int{12, 40}, ElemSize: 2, Input: true}
	lo := &model.Array{Name: "lo", Dims: []int{12, 32}, ElemSize: 2, Output: true}
	col := &model.Array{Name: "col", Dims: []int{24, 24}, ElemSize: 1, Input: true}
	hi := &model.Array{Name: "hi", Dims: []int{16, 24}, ElemSize: 4, Output: true}
	rev := &model.Array{Name: "rev", Dims: []int{20, 3}, ElemSize: 2, Input: true}
	z := &model.Array{Name: "z", Dims: []int{4}, ElemSize: 4, Input: true}
	big := &model.Array{Name: "big", Dims: []int{20, 40}, ElemSize: 2, Output: true}
	one := &model.Array{Name: "one", Dims: []int{48}, ElemSize: 1, Input: true}
	ix := func(c int, terms ...model.Term) model.Expr { return model.Affine(c, terms...) }
	tm := func(v string, coef int) model.Term { return model.Term{Var: v, Coef: coef} }
	p := &model.Program{
		Name:   "periods",
		Arrays: []*model.Array{img, lo, col, hi, rev, z, big, one},
		Blocks: []*model.Block{
			{Name: "rows", Body: []model.Node{
				&model.Loop{Var: "r", Trip: 2, Body: []model.Node{
					&model.Loop{Var: "y", Trip: 12, Body: []model.Node{
						&model.Loop{Var: "x", Trip: 16, Body: []model.Node{
							&model.Loop{Var: "k", Trip: 9, Body: []model.Node{
								&model.Access{Array: img, Kind: model.Read, Index: []model.Expr{model.Idx("y"), ix(0, tm("x", 2), tm("k", 1))}},
							}},
							&model.Access{Array: lo, Kind: model.Write, Index: []model.Expr{model.Idx("y"), model.Idx("x")}},
							&model.Access{Array: lo, Kind: model.Write, Index: []model.Expr{model.Idx("y"), ix(16, tm("x", 1))}},
						}},
					}},
				}},
			}},
			{Name: "cols", Body: []model.Node{
				&model.Loop{Var: "y", Trip: 8, Body: []model.Node{
					&model.Loop{Var: "x", Trip: 24, Body: []model.Node{
						&model.Loop{Var: "k", Trip: 9, Body: []model.Node{
							&model.Access{Array: col, Kind: model.Read, Index: []model.Expr{ix(0, tm("y", 2), tm("k", 1)), model.Idx("x")}},
						}},
						&model.Access{Array: hi, Kind: model.Write, Index: []model.Expr{model.Idx("y"), model.Idx("x")}},
						&model.Access{Array: hi, Kind: model.Write, Index: []model.Expr{ix(8, tm("y", 1)), model.Idx("x")}},
					}},
				}},
			}},
			{Name: "shifts", Body: []model.Node{
				&model.Loop{Var: "r", Trip: 3, Body: []model.Node{
					&model.Loop{Var: "x", Trip: 20, Body: []model.Node{
						&model.Loop{Var: "k", Trip: 3, Body: []model.Node{
							&model.Access{Array: rev, Kind: model.Read, Index: []model.Expr{ix(19, tm("x", -1)), ix(2, tm("k", -1))}},
						}},
						&model.Access{Array: z, Kind: model.Read, Index: []model.Expr{model.ConstExpr(2)}},
						&model.Access{Array: big, Kind: model.Write, Index: []model.Expr{model.Idx("x"), model.Idx("r")}},
					}},
					&model.Loop{Var: "x", Trip: 48, Body: []model.Node{
						&model.Loop{Var: "k", Trip: 1, Body: []model.Node{
							&model.Access{Array: one, Kind: model.Read, Index: []model.Expr{ix(47, tm("x", -1))}},
						}},
						&model.Access{Array: one, Kind: model.Read, Index: []model.Expr{model.Idx("x")}},
					}},
				}},
			}},
		},
	}
	ws, err := workspace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// residentProgram builds strips whose steady windows cross into lines
// already resident at level 0. Warm-up loops read arrays a, b and c, so
// their lines (and, with a next-line prefetcher, buffered lines past
// c's end) are in place; then a period re-walks them: a read site and a
// write site sharing b's lines with a read site walking b backwards,
// reads of a 2 bytes apart and of c 8 bytes apart (more than a line of
// up to 4 bytes), the c site's stride lookahead running past the trip
// end into d's lines, which no warm-up touched. Reading d then evicts,
// so the recency order the windows left decides which lines of a and b
// the re-reads after it find, and the dirty bits decide the write-backs.
// A last loop reads a, which sits at address 0, backwards to its first
// element: its stride lookahead runs below address 0.
func residentProgram(t *testing.T) *workspace.Workspace {
	t.Helper()
	a := &model.Array{Name: "a", Dims: []int{64}, ElemSize: 1, Input: true}
	b := &model.Array{Name: "b", Dims: []int{32}, ElemSize: 2, Input: true, Output: true}
	c := &model.Array{Name: "c", Dims: []int{256}, ElemSize: 1, Input: true}
	d := &model.Array{Name: "d", Dims: []int{64}, ElemSize: 1, Input: true}
	ix := func(k int, v string, coef int) []model.Expr {
		return []model.Expr{model.Affine(k, model.Term{Var: v, Coef: coef})}
	}
	read := func(arr *model.Array, idx []model.Expr) model.Node {
		return &model.Access{Array: arr, Kind: model.Read, Index: idx}
	}
	loop := func(v string, trip int, body ...model.Node) model.Node {
		return &model.Loop{Var: v, Trip: trip, Body: body}
	}
	p := &model.Program{
		Name:   "resident",
		Arrays: []*model.Array{a, b, c, d},
		Blocks: []*model.Block{
			{Name: "warm", Body: []model.Node{
				loop("i", 64, read(a, ix(0, "i", 1))),
				loop("i", 32, read(b, ix(0, "i", 1))),
				loop("i", 256, read(c, ix(0, "i", 1))),
			}},
			{Name: "steady", Body: []model.Node{
				loop("r", 3, loop("i", 32,
					read(a, ix(0, "i", 2)),
					read(b, ix(0, "i", 1)),
					&model.Access{Array: b, Kind: model.Write, Index: ix(0, "i", 1)},
					read(b, ix(31, "i", -1)),
					read(c, ix(0, "i", 8)),
				)),
			}},
			{Name: "evict", Body: []model.Node{
				loop("i", 64, read(d, ix(0, "i", 1))),
				loop("i", 64, read(a, ix(0, "i", 1))),
				loop("i", 32, read(b, ix(0, "i", 1))),
			}},
			{Name: "down", Body: []model.Node{
				loop("i", 64, read(a, ix(63, "i", -1))),
			}},
		},
	}
	ws, err := workspace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestSteadySkipMatchesReference requires the steady-strip and
// steady-period replay to render the same Result.JSON bytes as the
// per-access reference: on the /v1/simulate pool at paper scale on the
// two- and three-level figure platforms through the five golden
// variants, on 220 progen scenarios through the no-cache anchor and a
// seeded geometry under each level-0 prefetcher, on a program of
// negative and line-sized steps through every line size, and on the
// period program through every line size, prefetcher, degree 1-3 and
// arrival latencies 0 and 4, and on the resident program through every
// line size to 64 bytes with 1, 2 and 4 sets and the same prefetchers,
// degrees and latencies.
func TestSteadySkipMatchesReference(t *testing.T) {
	for _, name := range poolApps {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := workspace.Compile(app.Build(apps.Paper))
		if err != nil {
			t.Fatal(err)
		}
		for _, plat := range []*platform.Platform{energy.TwoLevel(app.L1), energy.ThreeLevel(app.L1, 4*app.L1)} {
			for _, variant := range goldenVariants {
				matchReference(t, fmt.Sprintf("%s/%s/%s", name, plat.Name, variant), ws, plat, goldenConfig(variant, plat))
			}
		}
	}
	for seed := int64(0); seed < 220; seed++ {
		sc := diffConfig.Generate(seed)
		ws, err := workspace.Compile(sc.Program)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		matchReference(t, fmt.Sprintf("seed %d anchor", seed), ws, sc.Platform, Config{})
		rng := rand.New(rand.NewSource(seed))
		for _, kind := range []PrefetcherKind{PrefetchNone, PrefetchNextLine, PrefetchStride} {
			cfg := seededConfig(rng, sc.Platform, kind)
			matchReference(t, fmt.Sprintf("seed %d %s %+v", seed, kind, cfg.Levels), ws, sc.Platform, cfg)
		}
	}
	ws, plat := reverseProgram(t), threePlat()
	for line := 1; line <= 128; line *= 2 {
		for _, kind := range []PrefetcherKind{PrefetchNone, PrefetchNextLine, PrefetchStride} {
			cfg := ConfigFor(plat, 2, line)
			for i := range cfg.Levels {
				cfg.Levels[i].Prefetcher, cfg.Levels[i].PrefetchDegree, cfg.Levels[i].PrefetchLatency = kind, 3, 1
			}
			matchReference(t, fmt.Sprintf("reverse %d B %s", line, kind), ws, plat, cfg)
		}
	}
	ws = periodProgram(t)
	matchReference(t, "periods anchor", ws, plat, Config{})
	for line := 1; line <= 128; line *= 2 {
		for _, kind := range []PrefetcherKind{PrefetchNone, PrefetchNextLine, PrefetchStride} {
			for degree := 1; degree <= 3; degree++ {
				for _, latency := range []int{0, 4} {
					if kind == PrefetchNone && (degree > 1 || latency > 0) {
						continue
					}
					cfg := ConfigFor(plat, 2, line)
					for i := range cfg.Levels {
						cfg.Levels[i].Prefetcher, cfg.Levels[i].PrefetchDegree, cfg.Levels[i].PrefetchLatency = kind, degree, latency
					}
					matchReference(t, fmt.Sprintf("periods %d B %s degree %d latency %d", line, kind, degree, latency), ws, plat, cfg)
				}
			}
		}
	}
	ws = residentProgram(t)
	for line := 1; line <= 64; line *= 2 {
		for _, sets := range []int{1, 2, 4} {
			for _, kind := range []PrefetcherKind{PrefetchNone, PrefetchNextLine, PrefetchStride} {
				for degree := 1; degree <= 3; degree++ {
					for _, latency := range []int{0, 4} {
						if kind == PrefetchNone && (degree > 1 || latency > 0) {
							continue
						}
						// 384 bytes hold a, b and c but not d as well.
						cfg := Config{Levels: []LevelConfig{{
							Sets: sets, Ways: max(1, 384/(sets*line)), LineBytes: line,
							Prefetcher: kind, PrefetchDegree: degree, PrefetchLatency: latency,
						}}}
						matchReference(t, fmt.Sprintf("resident %d B %d sets %s degree %d latency %d", line, sets, kind, degree, latency), ws, plat, cfg)
					}
				}
			}
		}
	}
}

// TestPeriodSkipStrideEntry requires a skip from a period loop entry's
// first iteration to leave a lone site's stride entry as the skipped
// iterations would: the reference iteration's delta came from before
// the entry (here, nothing: the site was never seen), each skipped one
// is Shift·elem. The period "for x { for k < 1 { read A[x] } }" runs
// over 1-byte elements after a read of A[0] put line 0 in the cache, so
// iteration 0 hits and skips to the end of the line. The next
// iteration is confident and prefetches line 1; a skip that kept the
// entry's stride at 0 would not.
func TestPeriodSkipStrideEntry(t *testing.T) {
	a := &model.Array{Name: "A", Dims: []int{64}, ElemSize: 1, Input: true}
	p := &model.Program{
		Name:   "stride-entry",
		Arrays: []*model.Array{a},
		Blocks: []*model.Block{{Name: "b0", Body: []model.Node{
			&model.Access{Array: a, Kind: model.Read, Index: []model.Expr{model.ConstExpr(0)}},
			&model.Loop{Var: "x", Trip: 64, Body: []model.Node{
				&model.Loop{Var: "k", Trip: 1, Body: []model.Node{
					&model.Access{Array: a, Kind: model.Read, Index: []model.Expr{model.Idx("x")}},
				}},
			}},
		}}},
	}
	ws, err := workspace.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	plat := threePlat()
	for degree := 1; degree <= 3; degree++ {
		for _, latency := range []int{0, 2} {
			cfg := ConfigFor(plat, 2, 32)
			cfg.Levels[0].Prefetcher, cfg.Levels[0].PrefetchDegree, cfg.Levels[0].PrefetchLatency = PrefetchStride, degree, latency
			name := fmt.Sprintf("degree %d latency %d", degree, latency)
			matchReference(t, name, ws, plat, cfg)
			st, err := replay(context.Background(), ws, plat, cfg.normalized())
			if err != nil {
				t.Fatal(err)
			}
			if st.periods == 0 {
				t.Errorf("%s: no period iteration skipped", name)
			}
		}
	}
}

// TestRepeatAdd requires repeatAdd to equal the naive loop bit for bit
// for every round count it reports, and to take the rounds that stay
// inside the sum's binade: with each charge once per round, and with
// charges repeated within a round, as a period body's strips repeat
// their sites' charges.
func TestRepeatAdd(t *testing.T) {
	naive := func(x float64, cs []repeated, n int64) float64 {
		for ; n > 0; n-- {
			for _, c := range cs {
				for i := int64(0); i < c.n; i++ {
					x += c.c
				}
			}
		}
		return x
	}
	checkRepeated := func(x float64, cs []repeated, k int64) int64 {
		t.Helper()
		got, n := repeatAdd(x, cs, k)
		if n < 0 || n > k {
			t.Fatalf("repeatAdd(%v, %v, %d) took %d rounds", x, cs, k, n)
		}
		if want := naive(x, cs, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("repeatAdd(%v, %v, %d) = %v after %d rounds, naive %v", x, cs, k, got, n, want)
		}
		return n
	}
	check := func(x float64, cs []float64, k int64) int64 {
		t.Helper()
		once := make([]repeated, len(cs))
		for i, c := range cs {
			once[i] = repeated{c, 1}
		}
		return checkRepeated(x, once, k)
	}

	pow2 := math.Ldexp(1, 20)
	below := math.Nextafter(pow2, 0) // the largest double under 2^20
	ulpBelow := pow2 - below         // its ulp, 2^-33
	sub := math.SmallestNonzeroFloat64
	cases := []struct {
		x    float64
		cs   []float64
		k    int64
		want int64 // rounds it must take (-1: any)
	}{
		{0, []float64{0}, 1e6, 1e6},
		{0, []float64{0, 0, 0}, 1e6, 1e6},
		{0, []float64{1}, 1e6, 0},     // 1 leaves the binade of 0
		{0, []float64{sub}, 1e6, 1e6}, // subnormal steps from zero
		{0, []float64{3 * sub, sub}, 1e6, 1e6},
		{sub, []float64{0x1p-1030}, 1e6, -1}, // leaves the subnormal range
		{0x1p-1040, []float64{sub, 7 * sub}, 1e6, 1e6},
		{below, []float64{0}, 1e6, 1e6},
		{below, []float64{ulpBelow}, 1e6, 0}, // reaches 2^20
		{below - 8*ulpBelow, []float64{ulpBelow}, 1e6, 8},
		{below, []float64{ulpBelow / 2}, 1e6, 0}, // exact half-ulp tie
		{below, []float64{ulpBelow / 4}, 1e6, 1e6},
		{below - ulpBelow, []float64{ulpBelow / 2}, 1e6, 0}, // tie on an even last bit
		{below, []float64{1.5 * ulpBelow}, 1e6, 0},
		{below - 10*ulpBelow, []float64{0.75 * ulpBelow, 0.25 * ulpBelow}, 1e6, 10}, // rounds of 1 + 0 ulp
		{1, []float64{3}, 1e6, 0},                                                   // a charge larger than the sum
		{1, []float64{0.25, 0.125}, 1e6, 2},
		{1000, []float64{0.1, 2.5, 0.35}, 1e6, -1},
		{3e10, []float64{1.7, 4.2, 0.001}, 1e6, 1e6},
		{math.MaxFloat64, []float64{1}, 1e6, 1e6},
		{math.MaxFloat64, []float64{math.MaxFloat64}, 1e6, 0},
		{math.Inf(1), []float64{1}, 1e6, 0},
		{-1, []float64{1}, 1e6, 0},
		{1, []float64{-0.5}, 1e6, 0},
		{1, []float64{math.NaN()}, 1e6, 0},
		{1, nil, 1e6, 1e6},
	}
	for _, c := range cases {
		if n := check(c.x, c.cs, c.k); c.want >= 0 && n != c.want {
			t.Errorf("repeatAdd(%v, %v, %d) took %d rounds, want %d", c.x, c.cs, c.k, n, c.want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x := math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		if rng.Intn(8) == 0 {
			x = 0
		}
		cs := make([]float64, 1+rng.Intn(5))
		for j := range cs {
			switch rng.Intn(4) {
			case 0: // a multiple of a quarter ulp of x, ties included
				_, e := math.Frexp(x)
				cs[j] = float64(rng.Intn(16)) * math.Ldexp(1, e-55)
			case 1:
				cs[j] = 0
			default:
				cs[j] = math.Ldexp(rng.Float64(), rng.Intn(80)-60)
			}
		}
		k := int64(1 + rng.Intn(1000))
		if rng.Intn(20) == 0 {
			k = 1e6
		}
		check(x, cs, k)
	}

	repCases := []struct {
		x    float64
		cs   []repeated
		k    int64
		want int64
	}{
		{0, []repeated{{0, 1 << 40}}, 1e6, 1e6},
		{0, []repeated{{sub, 9}, {3 * sub, 0}}, 1e6, 1e6},
		{below - 64*ulpBelow, []repeated{{ulpBelow, 8}}, 1e6, 8}, // 8 ulps a round: 8 rounds reach the binade's last value
		{below - 7*ulpBelow, []repeated{{ulpBelow, 8}}, 1e6, 0},  // one round would leave the binade
		{below - 30*ulpBelow, []repeated{{0.75 * ulpBelow, 3}, {0.25 * ulpBelow, 5}}, 1e6, 10},
		{below, []repeated{{ulpBelow / 2, 4}}, 1e6, 0},       // a tie, however often it repeats
		{1, []repeated{{math.Ldexp(1, -52), 1 << 62}}, 1, 0}, // a count whose product overflows
		{1, []repeated{{0.25, 2}, {0.125, 0}}, 1e6, 1},
	}
	for _, c := range repCases {
		if c.cs[0].n > 1<<20 {
			// Too many additions to run naively: only the count is checked.
			if _, n := repeatAdd(c.x, c.cs, c.k); n != c.want {
				t.Errorf("repeatAdd(%v, %v, %d) took %d rounds, want %d", c.x, c.cs, c.k, n, c.want)
			}
			continue
		}
		if n := checkRepeated(c.x, c.cs, c.k); n != c.want {
			t.Errorf("repeatAdd(%v, %v, %d) took %d rounds, want %d", c.x, c.cs, c.k, n, c.want)
		}
	}
	for i := 0; i < 2000; i++ {
		x := math.Ldexp(rng.Float64(), rng.Intn(80)-40)
		_, e := math.Frexp(x)
		cs := make([]repeated, 1+rng.Intn(4))
		for j := range cs {
			cs[j] = repeated{float64(rng.Intn(16)) * math.Ldexp(1, e-55), int64(rng.Intn(12))}
			if rng.Intn(2) == 0 {
				cs[j].c = math.Ldexp(rng.Float64(), rng.Intn(60)-50)
			}
		}
		checkRepeated(x, cs, int64(1+rng.Intn(200)))
	}
}

// steppedPool is the number of accesses the /v1/simulate pool (the five
// applications at paper scale on their figure platforms) replays one
// at a time per variant, out of 3,456,575 accesses; the rest are
// skipped in steady strips and periods. periodsPool is the number of
// period iterations skipped.
var (
	steppedPool = map[string]int64{
		"anchor":   31110,
		"lru":      474167,
		"nextline": 764896,
		"stride":   721829,
		"window":   2722667,
	}
	periodsPool = map[string]int64{
		"anchor":   154812,
		"lru":      50535,
		"nextline": 46285,
		"stride":   40680,
		"window":   0,
	}
)

// TestSteadyStripsSkip pins how many accesses of the pool the replay
// steps one at a time and how many period iterations it skips, so a
// change that silently stops skipping (or skips less) fails here even
// though every result stays the same.
func TestSteadyStripsSkip(t *testing.T) {
	stepped, periods := map[string]int64{}, map[string]int64{}
	for _, name := range poolApps {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := workspace.Compile(app.Build(apps.Paper))
		if err != nil {
			t.Fatal(err)
		}
		plat := energy.TwoLevel(app.L1)
		for _, variant := range goldenVariants {
			st, err := replay(context.Background(), ws, plat, goldenConfig(variant, plat).normalized())
			if err != nil {
				t.Fatal(err)
			}
			stepped[variant] += st.stepped
			periods[variant] += st.periods
		}
	}
	for _, variant := range goldenVariants {
		if stepped[variant] != steppedPool[variant] {
			t.Errorf("%s: %d accesses stepped one at a time, want %d", variant, stepped[variant], steppedPool[variant])
		}
		if periods[variant] != periodsPool[variant] {
			t.Errorf("%s: %d period iterations skipped, want %d", variant, periods[variant], periodsPool[variant])
		}
	}
}
