package assign

// Catalog equivalence: filtering the capacity-unfiltered shared
// enumeration (chainOptionsAll) by per-pair capacity feasibility must
// reproduce the per-platform enumeration (chainOptionsFor) exactly,
// element for element and in order — the invariant that lets every
// sweep point share one catalog and makes the catalog-backed search
// byte-identical to the enumerate-per-point one it replaced.

import (
	"context"
	"reflect"
	"testing"

	"mhla/internal/platform"
	"mhla/internal/reuse"
	"mhla/internal/workspace"
)

// chainOptionsFor is the oracle per-platform enumeration: every
// monotone selection of the chain's candidates on the on-chip layers
// (including the empty selection), skipping copies that exceed their
// layer's capacity outright while recursing.
func chainOptionsFor(plat *platform.Platform, ch *reuse.Chain) []option {
	onChip := plat.OnChipLayers()
	opts := []option{{}}
	var rec func(minLevel, maxLayerExcl int, levels, layers []int)
	rec = func(minLevel, maxLayerExcl int, levels, layers []int) {
		for lv := minLevel; lv <= ch.Depth(); lv++ {
			cand := ch.Candidate(lv)
			for _, ly := range onChip {
				if ly >= maxLayerExcl {
					continue
				}
				if cand.Bytes > plat.Layers[ly].Capacity {
					continue
				}
				nl := append(append([]int(nil), levels...), lv)
				ny := append(append([]int(nil), layers...), ly)
				opts = append(opts, option{levels: nl, layers: ny})
				rec(lv+1, ly, nl, ny)
			}
		}
	}
	rec(0, len(plat.Layers), nil, nil)
	return opts
}

func TestCatalogFilterMatchesPerPlatformEnumeration(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		prog, plat, _ := stateScenario(seed)
		an, err := reuse.Analyze(prog)
		if err != nil {
			t.Fatalf("seed %d: analyze: %v", seed, err)
		}
		for ci, ch := range an.Chains {
			want := chainOptionsFor(plat, ch)
			full := chainOptionsAll(len(plat.Layers), plat.OnChipLayers(), ch)
			var got []option
			for _, op := range full {
				if optionFeasible(plat, ch, op) {
					got = append(got, op)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d chain %d: filtered catalog has %d options, per-platform enumeration %d",
					seed, ci, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i].levels, want[i].levels) ||
					!reflect.DeepEqual(got[i].layers, want[i].layers) {
					t.Fatalf("seed %d chain %d option %d: filtered %v/%v != enumerated %v/%v (order broken)",
						seed, ci, i, got[i].levels, got[i].layers, want[i].levels, want[i].layers)
				}
			}
		}
	}
}

// TestCatalogMemoSharedAcrossCapacities: two spaces over the same
// workspace whose platforms differ only in capacities must share one
// memoized catalog instance (the cross-sweep table-sharing claim),
// while a platform with a different shape gets its own.
func TestCatalogMemoSharedAcrossCapacities(t *testing.T) {
	prog, plat, opts := stateScenario(3)
	an, err := reuse.Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	ws := workspace.FromAnalysis(an)

	small := *plat
	small.Layers = append(small.Layers[:0:0], plat.Layers...)
	small.Layers[0].Capacity = 64

	s1 := newSpace(context.Background(), ws, plat, opts, false)
	s2 := newSpace(context.Background(), ws, &small, opts, false)
	if s1.cat != s2.cat {
		t.Error("capacity-only platform change rebuilt the catalog")
	}
	if catalogKey(plat) != catalogKey(&small) {
		t.Errorf("catalog keys differ for same shape: %q vs %q", catalogKey(plat), catalogKey(&small))
	}
}
