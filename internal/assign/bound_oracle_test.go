package assign

import (
	"fmt"
	"math"
)

// boundOracle walks the whole decision tree of the space from its root,
// then once more task by task from the roots of its root expansion, so
// that task states positioned by applyPrefix are checked too (the
// exhaustive engine's expansion when the space does not prune covers
// every feasible node). The walks share one searchState: each enters
// its root with enterRoot, refills the suffix on entering depth
// len(arrays) and rewinds to the tree root, as searchTask does. At every
// node it checks the bound searchTask reads, searchState.boundAt,
// against the exhaustive minimum of the node's subtree: the bound must
// not exceed it by more than pruneLimit's slack, or branch and bound
// could prune a leaf the incumbent does not beat. The bound must also
// be at least the home-free bound space.boundAt, which it tightens.
// It returns the number of nodes checked and the first violation.
func (s *space) boundOracle() (nodes int, err error) {
	levels := s.levels()
	st := newSearchState(s)
	for _, root := range append([]rootNode{{acc: s.base}}, s.expandRoots()...) {
		st.enterRoot(root)
		var walk func(depth int, acc contrib) float64
		walk = func(depth int, acc contrib) float64 {
			if depth == levels {
				return st.boundAt(depth, acc)
			}
			if depth == len(s.arrays) {
				st.fillSuffix()
			}
			best := math.Inf(1)
			for oi, nopts := 0, s.optionCount(depth); oi < nopts; oi++ {
				child := acc.plus(st.contribAt(depth, oi))
				if !st.apply(depth, oi) {
					continue
				}
				best = min(best, walk(depth+1, child))
				st.undo(depth, oi)
			}
			nodes++
			bound, free := st.boundAt(depth, acc), s.boundAt(depth, acc)
			if err == nil && bound > pruneLimit(best) {
				err = fmt.Errorf("depth %d of %d: bound %v above the subtree minimum %v", depth, levels, bound, best)
			}
			if err == nil && bound < free {
				err = fmt.Errorf("depth %d of %d: bound %v below the home-free bound %v", depth, levels, bound, free)
			}
			return best
		}
		walk(len(root.decisions), root.acc)
		st.rewindPrefix(root.decisions)
	}
	return nodes, err
}
