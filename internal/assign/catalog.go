package assign

import (
	"mhla/internal/model"
	"mhla/internal/platform"
	"mhla/internal/reuse"
)

// arrayHomes lists the home layers an exact search decides between
// for an array: the background layer, then every on-chip layer the
// whole array fits, in platform order. The order is the search's
// option order.
func arrayHomes(plat *platform.Platform, arr *model.Array) []int {
	homes := []int{plat.Background()}
	for _, ly := range plat.OnChipLayers() {
		if arr.Bytes() <= plat.Layers[ly].Capacity {
			homes = append(homes, ly)
		}
	}
	return homes
}

// chainOptions enumerates the chain's selections an exact search
// decides between: every monotone selection of its copy candidates on
// the on-chip layers (including the empty selection), in pre-order,
// skipping copies that exceed their layer's capacity outright while
// recursing. The order is the search's option order, so it fixes every
// tie-break downstream.
func chainOptions(plat *platform.Platform, ch *reuse.Chain) []option {
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
