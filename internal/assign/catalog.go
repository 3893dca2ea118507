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
// tie-break downstream. A first walk counts the options and their
// levels; the second carves every option's levels and layers out of
// one backing buffer, capped with full slice expressions so that an
// append to one option can never write into the next.
func chainOptions(plat *platform.Platform, ch *reuse.Chain) []option {
	onChip := plat.OnChipLayers()
	var opts []option
	var buf []int
	n, words := 1, 0
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
				nl, ny := append(levels, lv), append(layers, ly)
				if k := len(nl); opts == nil { // the counting walk
					n, words = n+1, words+2*k
				} else {
					op := option{levels: buf[:k:k], layers: buf[k : 2*k : 2*k]}
					copy(op.levels, nl)
					copy(op.layers, ny)
					opts, buf = append(opts, op), buf[2*k:]
				}
				rec(lv+1, ly, nl, ny)
			}
		}
	}
	// A selection holds at most one copy per level; path is the
	// walk's levels/layers stack.
	d := ch.Depth() + 1
	path := make([]int, 2*d)
	rec(0, len(plat.Layers), path[:0:d], path[d:d])
	opts, buf = make([]option, 1, n), make([]int, words)
	rec(0, len(plat.Layers), path[:0:d], path[d:d])
	return opts
}
