package assign

// Internal tests of the incremental search state: the invariant is
// that at ANY position of the decision tree, each bounded layer's
// tracker peak equals the batch PeakUsage of the assignment built from
// the position — i.e. the mutable apply/undo state is observationally
// identical to the Assignment the clone-per-node engine would carry.
// (The end-to-end guarantee — identical Results across engines and
// worker counts over 220 progen scenarios — is enforced by the
// differential harness in differential_test.go; these tests probe the
// state machinery directly, including positions the pruned search
// never visits.)
//
// The scenarios are generated by a local seeded mini-generator
// (progen itself imports this package, so internal tests cannot use
// it without an import cycle).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/reuse"
	"mhla/internal/workspace"
)

// stateScenario builds a small seeded random program/platform/options
// triple: 1-3 arrays (input/output/scratch, some deliberately
// unused), 1-3 blocks of doubly nested loops with whole-array
// accesses, a 2- or 3-level platform with a seeded L1 capacity, and
// randomized operating points.
func stateScenario(seed int64) (*model.Program, *platform.Platform, Options) {
	rng := rand.New(rand.NewSource(seed))
	p := model.NewProgram(fmt.Sprintf("state%d", seed))
	narr := 1 + rng.Intn(3)
	arrs := make([]*model.Array, 0, narr)
	for i := 0; i < narr; i++ {
		n := 16 << rng.Intn(3)
		name := string(rune('a' + i))
		var arr *model.Array
		switch rng.Intn(4) {
		case 0:
			arr = p.NewInput(name, 2, n)
		case 1:
			arr = p.NewOutput(name, 2, n)
		default:
			arr = p.NewArray(name, 2, n)
		}
		arrs = append(arrs, arr)
	}
	nblocks := 1 + rng.Intn(3)
	for b := 0; b < nblocks; b++ {
		arr := arrs[rng.Intn(len(arrs))]
		dim := arr.Dims[0]
		access := model.Load(arr, model.Idx("i"))
		if arr.Output {
			access = model.Store(arr, model.Idx("i"))
		}
		p.AddBlock(fmt.Sprintf("b%d", b),
			model.For("r", 4<<rng.Intn(3),
				model.For("i", dim, access, model.Work(int64(1+rng.Intn(3))))))
	}

	plat := testPlat()
	plat.Layers[0].Capacity = int64(64 << rng.Intn(6)) // 64..2048
	if rng.Intn(2) == 0 {
		l2 := plat.Layers[0]
		l2.Name = "L2"
		l2.Capacity *= 4
		l2.LatencyRead, l2.LatencyWrite = 4, 4
		l2.EnergyRead, l2.EnergyWrite = 6, 6.5
		plat.Layers = []platform.Layer{plat.Layers[0], l2, plat.Layers[1]}
	}

	opts := Options{}
	opts.NoInPlace = rng.Intn(4) == 0
	if rng.Intn(2) == 0 {
		opts.Policy = reuse.Refetch
	}
	opts.Objective = Objective(rng.Intn(3))
	return p, plat, opts
}

func stateSpace(t *testing.T, seed int64) *space {
	t.Helper()
	prog, plat, opts := stateScenario(seed)
	if err := plat.Validate(); err != nil {
		t.Fatalf("seed %d: generated platform invalid: %v", seed, err)
	}
	an, err := reuse.Analyze(prog)
	if err != nil {
		t.Fatalf("seed %d: analyze: %v", seed, err)
	}
	return newSpace(context.Background(), workspace.FromAnalysis(an), plat, opts, false)
}

// positionAssignment builds the assignment of the state's current
// position. An undecided chain (selection -1) places nothing, exactly
// like its empty selection, option 0, which it is built as.
func positionAssignment(st *searchState) *Assignment {
	d := st.decisions(nil)
	for i := range d {
		d[i] = max(d[i], 0)
	}
	return st.sp.assignment(d)
}

// checkStateMatchesBatch compares every bounded layer's incremental
// peak against the from-scratch estimate on the assignment built from
// the state's position.
func checkStateMatchesBatch(t *testing.T, seed int64, st *searchState) {
	t.Helper()
	a := positionAssignment(st)
	for li, tr := range st.occ.trackers {
		if tr == nil {
			continue
		}
		if got, want := tr.Peak(), a.PeakUsage(li); got != want {
			t.Fatalf("seed %d: layer %d tracker peak %d != batch PeakUsage %d\n%s",
				seed, li, got, want, a)
		}
	}
}

// TestSearchStateMatchesBatchEstimate walks random feasible DFS paths
// (with random backtracking) and checks the tracker/batch agreement
// after every apply and every undo, then verifies a full unwind
// returns the state to the out-of-the-box root.
func TestSearchStateMatchesBatchEstimate(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		s := stateSpace(t, seed)
		st := newSearchState(s)
		checkStateMatchesBatch(t, seed, st)

		rng := rand.New(rand.NewSource(seed))
		type taken struct{ depth, oi int }
		var path []taken
		for step := 0; step < 200; step++ {
			depth := len(path)
			if len(path) > 0 && (depth == s.levels() || rng.Intn(3) == 0) {
				last := path[len(path)-1]
				path = path[:len(path)-1]
				st.undo(last.depth, last.oi)
				checkStateMatchesBatch(t, seed, st)
				continue
			}
			if depth == s.levels() {
				continue
			}
			oi := rng.Intn(s.optionCount(depth))
			if !st.apply(depth, oi) {
				// Infeasible decisions must leave the state unchanged.
				checkStateMatchesBatch(t, seed, st)
				continue
			}
			path = append(path, taken{depth, oi})
			checkStateMatchesBatch(t, seed, st)
		}
		for i := len(path) - 1; i >= 0; i-- {
			st.undo(path[i].depth, path[i].oi)
		}
		checkStateMatchesBatch(t, seed, st)
		for ci := range s.chains {
			if st.chainSel[ci] != -1 {
				t.Fatalf("seed %d: chain %d still selected after full unwind", seed, ci)
			}
		}
		for ai := range s.arrays {
			if st.homes[ai] != s.bg {
				t.Fatalf("seed %d: array %d not back on background after full unwind", seed, ai)
			}
		}
	}
}

// TestSearchStateContribMatchesEvaluate asserts that a complete
// random feasible path's accumulated table contributions score the
// leaf exactly like evaluating the assignment built from it — the
// agreement the bound pruning and the greedy-seed comparison rely on.
func TestSearchStateContribMatchesEvaluate(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		s := stateSpace(t, seed)
		st := newSearchState(s)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		acc := s.base
		for depth := 0; depth < s.levels(); depth++ {
			// Try options in a random rotation until one is feasible;
			// option 0 (background home / empty selection) always is.
			n := s.optionCount(depth)
			off := rng.Intn(n)
			applied := false
			for k := 0; k < n; k++ {
				oi := (off + k) % n
				if st.apply(depth, oi) {
					acc = acc.plus(st.contribAt(depth, oi))
					applied = true
					break
				}
			}
			if !applied {
				t.Fatalf("seed %d: no feasible decision at depth %d (option 0 should always apply)", seed, depth)
			}
		}
		a := st.sp.assignment(st.decisions(nil))
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: leaf assignment invalid: %v\n%s", seed, err, a)
		}
		cost := a.Evaluate(EvalOptions{})
		if acc.cycles != cost.Cycles {
			t.Errorf("seed %d: accumulated cycles %d != evaluated %d", seed, acc.cycles, cost.Cycles)
		}
		// The fold and Evaluate add the same n energy terms in
		// different orders (the folded contributions add zero terms
		// on top, which is exact). Any summation order of n terms lies
		// within (n-1)·2⁻⁵³·Σ|terms| of the exact sum to first order,
		// so the two differ by at most twice that.
		terms := energyTerms(a)
		var sum float64
		for _, e := range terms {
			sum += math.Abs(e)
		}
		slack := 2 * float64(max(len(terms)-1, 0)) * 0x1p-53 * sum
		if diff := acc.energy - cost.Energy; diff > slack || diff < -slack {
			t.Errorf("seed %d: accumulated energy %g != evaluated %g (bound %g over %d terms)",
				seed, acc.energy, cost.Energy, slack, len(terms))
		}
	}
}

// energyTerms lists the energy terms Evaluate adds for the assignment
// with no time extensions: one CPU-access term per chain, one term per
// block-transfer stream, and the initial-fill and final write-back
// terms of every array homed on-chip.
func energyTerms(a *Assignment) []float64 {
	var terms []float64
	for _, ch := range a.Analysis.Chains {
		layer := a.AccessLayer(ch)
		words := a.Platform.Layers[layer].Words(int64(ch.Array.ElemSize))
		terms = append(terms, float64(ch.AccessesPerExecution()*words)*a.Platform.AccessEnergy(layer, ch.Kind == model.Write))
	}
	for _, st := range a.Streams() {
		src, dst := st.Parent, st.Layer
		if st.Write {
			src, dst = st.Layer, st.Parent
		}
		terms = append(terms, float64(st.Count)*a.Platform.TransferEnergy(src, dst, st.Bytes))
	}
	bg := a.Platform.Background()
	for _, arr := range a.Analysis.Program.Arrays {
		if home := a.ArrayHome[arr.Name]; home != bg {
			if arr.Input {
				terms = append(terms, a.Platform.TransferEnergy(bg, home, arr.Bytes()))
			}
			if arr.Output {
				terms = append(terms, a.Platform.TransferEnergy(home, bg, arr.Bytes()))
			}
		}
	}
	return terms
}

// TestLookupOption: every enumerated option must resolve to its own
// index, and over a platform with halved on-chip capacities a
// selection resolves exactly when all of its copies still fit, to the
// same selection; one that no longer fits reports ok=false, which is
// how replay rejects a warm start from a larger L1.
func TestLookupOption(t *testing.T) {
	filtered := 0
	for seed := int64(0); seed < 25; seed++ {
		s := stateSpace(t, seed)
		small := *s.plat
		small.Layers = append(small.Layers[:0:0], s.plat.Layers...)
		for _, ly := range small.OnChipLayers() {
			small.Layers[ly].Capacity = max(1, small.Layers[ly].Capacity/2)
		}
		ss := newSpace(context.Background(), s.ws, &small, s.opts, false)
		for ci, ch := range s.chains {
			for oi, op := range s.chainOpts[ci] {
				got, ok := s.lookupOption(ci, op.levels, op.layers)
				if !ok || got != oi {
					t.Fatalf("seed %d chain %d: option %d maps to %d (ok=%v)", seed, ci, oi, got, ok)
				}
				fits := true
				for k, lv := range op.levels {
					fits = fits && ch.Candidate(lv).Bytes <= small.Layers[op.layers[k]].Capacity
				}
				got, ok = ss.lookupOption(ci, op.levels, op.layers)
				if ok != fits {
					t.Fatalf("seed %d chain %d: option %v/%v resolves at halved capacity: %v, fits: %v",
						seed, ci, op.levels, op.layers, ok, fits)
				}
				if !ok {
					filtered++
					continue
				}
				if g := ss.chainOpts[ci][got]; !slices.Equal(g.levels, op.levels) || !slices.Equal(g.layers, op.layers) {
					t.Fatalf("seed %d chain %d: option %v/%v resolves to %v/%v at halved capacity",
						seed, ci, op.levels, op.layers, g.levels, g.layers)
				}
			}
		}
	}
	if filtered == 0 {
		t.Fatal("halving the capacities filtered out no option")
	}
}
