package assign

import (
	"math"
	"runtime/debug"
	"testing"
)

// improvements counts the leaves of an exhaustive subtree task that
// improve its incumbent: every leaf is evaluated and none is seeded,
// so they are the record lows of the leaf scores in depth-first order,
// the first leaf included.
func improvements(s *space, st *searchState, root rootNode) int {
	n, best := 0, math.Inf(1)
	st.enterRoot(root)
	defer st.rewindPrefix(root.decisions)
	var walk func(depth int, acc contrib)
	walk = func(depth int, acc contrib) {
		if depth == s.levels() {
			if score := s.opts.Objective.contribScore(acc); n == 0 || score < best {
				n, best = n+1, score
			}
			return
		}
		for oi, nopts := 0, s.optionCount(depth); oi < nopts; oi++ {
			if st.apply(depth, oi) {
				walk(depth+1, acc.plus(st.contribAt(depth, oi)))
				st.undo(depth, oi)
			}
		}
	}
	walk(len(root.decisions), root.acc)
	return n
}

// TestSearchTaskAllocsIndependentOfImprovements: an improved leaf
// copies its position into the task's one decision buffer, so a
// subtree task allocates the same whether its incumbent improves once
// or many times. Over the exhaustive spaces of 200 state scenarios it
// compares the first task (the whole tree or a root of its expansion)
// that improves exactly once with the one that improves most, at
// least ten times. Each count is of a single task, so the collector is
// off while they are taken: an allocation the runtime makes during a
// GC cycle would otherwise count as the search's.
func TestSearchTaskAllocsIndependentOfImprovements(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type task struct {
		s     *space
		root  rootNode
		seed  int64
		count int
	}
	var once, most *task
	for seed := int64(0); seed < 200; seed++ {
		s := stateSpace(t, seed)
		s.opts.MaxStates = DefaultMaxStates
		st := newSearchState(s)
		for _, root := range append([]rootNode{{acc: s.base}}, s.expandRoots()...) {
			n := improvements(s, st, root)
			if n == 1 && once == nil {
				once = &task{s, root, seed, n}
			}
			if most == nil || n > most.count {
				most = &task{s, root, seed, n}
			}
		}
	}
	if once == nil || most.count < 10 {
		t.Fatalf("no task improves once and one at least ten times (most: %d)", most.count)
	}
	allocs := func(tk *task) float64 {
		st := newSearchState(tk.s)
		return testing.AllocsPerRun(3, func() {
			if r := tk.s.searchTask(st, tk.root); !r.complete || !r.found {
				t.Fatalf("seed %d: task incomplete or found no leaf", tk.seed)
			}
		})
	}
	if a1, an := allocs(once), allocs(most); a1 != an {
		t.Errorf("a task improving once (seed %d) allocates %v times, one improving %d times (seed %d) %v",
			once.seed, a1, most.count, most.seed, an)
	}
}
