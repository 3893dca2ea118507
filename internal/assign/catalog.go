package assign

import (
	"fmt"

	"mhla/internal/platform"
	"mhla/internal/reuse"
	"mhla/internal/workspace"
)

// This file holds the cross-sweep half of the exact engines' setup:
// the per-chain option catalogs. Enumerating every chain's selections,
// building their lifetime-object descriptors and indexing them by
// option key does not depend on layer capacities — only on the
// workspace's chains and the platform's *shape* (how many layers, and
// which are on-chip). The catalog enumerates the selections once,
// capacity-unfiltered, caches them on the workspace keyed by platform
// shape, and per-point setup shrinks to a capacity filter over the
// shared enumeration.

// chainCatalog is the platform-shape option catalog of one workspace:
// the capacity-unfiltered enumeration of every chain's monotone
// candidate selections over the on-chip layers, with the per-option
// lifetime-object descriptors and the option-key index built once.
// Catalogs are immutable after construction and shared read-only by
// every search over the workspace (Workspace.Memo serializes the
// one-time build).
type chainCatalog struct {
	// full[ci] is the pre-order enumeration of chain ci's options
	// with no capacity skip, so filtering it by capacity reproduces
	// the per-platform enumeration element for element.
	full [][]option
	// objs[ci][fi] are the space consumers option full[ci][fi] places
	// (ready-made lifetime objects, aligned with full).
	objs [][][]objDesc
	// index[ci] maps an option key to its index in full[ci].
	index []map[string]int
}

// catalogKey is the workspace-memo key of a platform shape: the layer
// count plus the on-chip layer indices. Capacities and costs are
// deliberately absent — the enumeration does not depend on them.
func catalogKey(plat *platform.Platform) string {
	return fmt.Sprintf("assign/catalog:%d:%v", len(plat.Layers), plat.OnChipLayers())
}

// chainOptionsAll enumerates every monotone selection of the chain's
// candidates over the on-chip layers, including selections that exceed
// layer capacities. Its capacity-feasible subsequence is exactly the
// enumeration that skips oversized copies while recursing (extensions
// of an infeasible pair contain that pair, so filtering cannot
// resurrect a pruned subtree out of order); the catalog tests check
// this against that per-platform enumeration.
func chainOptionsAll(nlayers int, onChip []int, ch *reuse.Chain) []option {
	opts := []option{{}}
	var rec func(minLevel, maxLayerExcl int, levels, layers []int)
	rec = func(minLevel, maxLayerExcl int, levels, layers []int) {
		for lv := minLevel; lv <= ch.Depth(); lv++ {
			for _, ly := range onChip {
				if ly >= maxLayerExcl {
					continue
				}
				nl := append(append([]int(nil), levels...), lv)
				ny := append(append([]int(nil), layers...), ly)
				opts = append(opts, option{levels: nl, layers: ny})
				rec(lv+1, ly, nl, ny)
			}
		}
	}
	rec(0, nlayers, nil, nil)
	return opts
}

// catalogFor returns the workspace's option catalog for the platform's
// shape, building and memoizing it on first use.
func catalogFor(ws *workspace.Workspace, plat *platform.Platform) *chainCatalog {
	nlayers := len(plat.Layers)
	onChip := append([]int(nil), plat.OnChipLayers()...)
	return ws.Memo(catalogKey(plat), func() any {
		cat := &chainCatalog{
			full:  make([][]option, len(ws.Chains)),
			objs:  make([][][]objDesc, len(ws.Chains)),
			index: make([]map[string]int, len(ws.Chains)),
		}
		for ci, ch := range ws.Chains {
			opts := chainOptionsAll(nlayers, onChip, ch)
			objs := make([][]objDesc, len(opts))
			idx := make(map[string]int, len(opts))
			for fi, op := range opts {
				for k, lv := range op.levels {
					// During a search no time-extension Extras exist, so
					// a copy occupies exactly its candidate bytes in its
					// chain's block — the same workspace object
					// Assignment.Objects reads for the materialized
					// assignment.
					objs[fi] = append(objs[fi], objDesc{
						layer: op.layers[k],
						obj:   ws.CandObjs[ci][lv],
					})
				}
				idx[optionKey(op.levels, op.layers)] = fi
			}
			cat.full[ci] = opts
			cat.objs[ci] = objs
			cat.index[ci] = idx
		}
		return cat
	}).(*chainCatalog)
}

// optionFeasible reports whether every copy the option places fits its
// layer's capacity outright — the per-platform filter over the shared
// catalog enumeration.
func optionFeasible(plat *platform.Platform, ch *reuse.Chain, op option) bool {
	for k, lv := range op.levels {
		if ch.Candidate(lv).Bytes > plat.Layers[op.layers[k]].Capacity {
			return false
		}
	}
	return true
}

// lookupOption resolves a chain selection to its per-point option
// index via the shared catalog index plus the capacity remap; ok is
// false for selections unknown to the catalog or infeasible at this
// point's capacities.
func (s *space) lookupOption(ci int, levels, layers []int) (oi int, ok bool) {
	fi, ok := s.cat.index[ci][optionKey(levels, layers)]
	if !ok {
		return 0, false
	}
	oi = s.optRemap[ci][fi]
	return oi, oi >= 0
}
