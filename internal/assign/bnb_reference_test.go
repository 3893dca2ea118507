package assign

// referenceSearchTask is the apply-then-bound subtree search the
// branch-and-bound engine ran before it bounded children ahead of
// applying them: every feasible child is applied to the occupancy
// trackers first and checks its own bound on entry. It is kept
// verbatim as the oracle of TestDifferentialSearchTaskReference, which
// requires searchTask to explore the same tree and return the same
// result on every subtree task.
func (s *space) referenceSearchTask(root rootNode) taskResult {
	r := taskResult{score: s.seedScore, complete: true}
	budget := s.opts.MaxStates
	localNodes := 0
	st := newSearchState(s)
	st.applyPrefix(root.decisions)
	var dfs func(depth int, acc contrib)
	dfs = func(depth int, acc contrib) {
		if s.cancelled.Load() {
			return
		}
		localNodes++
		if localNodes&1023 == 0 {
			s.tick()
			if s.cancelled.Load() {
				return
			}
		}
		if r.states > budget {
			r.complete = false
			return
		}
		if s.prune || depth == s.levels() {
			score := s.opts.Objective.contribScore(acc.plus(s.suffixAt(depth)))
			if s.prune && s.pruneSubtree(score, r.score) {
				return
			}
			if depth == s.levels() {
				// The suffix bound of a complete assignment is zero,
				// so score is the exact leaf score here.
				r.states++
				s.leaves.Add(1)
				if score < r.score || (!r.found && score <= r.score) {
					r.best, r.score, r.found = st.decisions(r.best), score, true
					s.publishBest(score)
				}
				return
			}
		}
		for oi, nopts := 0, s.optionCount(depth); oi < nopts; oi++ {
			if !st.apply(depth, oi) {
				continue
			}
			dfs(depth+1, acc.plus(st.contribAt(depth, oi)))
			st.undo(depth, oi)
		}
	}
	dfs(len(root.decisions), root.acc)
	return r
}
