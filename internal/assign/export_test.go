package assign

import (
	"context"

	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// OracleGreedy runs the clone-per-move reference greedy engine
// (greedy_oracle_test.go), for the external differential tests.
func OracleGreedy(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *Result {
	return oracleGreedySearch(ctx, ws, plat, opts)
}

// GreedySeed installs branch and bound's greedy seed on a fresh search
// space, as exactSearch does, and returns the materialized seed — the
// MaxStates fallback result — with its folded score; the seed is nil
// when it did not install.
func GreedySeed(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) (*Assignment, float64) {
	s := newSpace(ctx, ws, plat, opts, true)
	s.seedIncumbent()
	return s.seed, s.seedScore
}

// TaskOutcome is the deterministic outcome of one subtree task of an
// exact search.
type TaskOutcome struct {
	Best     *Assignment
	Score    float64
	States   int
	Complete bool
	Found    bool
}

// SearchTasksAgainstReference builds and seeds the search space
// exactSearch builds, runs every subtree task through searchTask and
// through referenceSearchTask (bnb_reference_test.go), and returns
// both outcome lists in task order plus the Result the reference
// outcomes merge to. opts.MaxStates is used as given.
func SearchTasksAgainstReference(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options, prune bool) (got, want []TaskOutcome, ref *Result) {
	s := newSpace(ctx, ws, plat, opts, prune)
	if prune {
		s.installIncumbents()
	}
	tasks := s.expandRoots()
	refResults := make([]taskResult, len(tasks))
	for i, root := range tasks {
		g, w := s.searchTask(root), s.referenceSearchTask(root)
		refResults[i] = w
		got = append(got, TaskOutcome{g.best, g.score, g.states, g.complete, g.found})
		want = append(want, TaskOutcome{w.best, w.score, w.states, w.complete, w.found})
	}
	return got, want, s.merge(refResults)
}

// CheckBound walks the exhaustive decision tree of the search space
// and checks branch and bound's node bound against every subtree's
// exhaustive minimum (bound_oracle_test.go). It returns the number of
// internal nodes checked and the first violation.
func CheckBound(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) (int, error) {
	return newSpace(ctx, ws, plat, opts, false).boundOracle()
}
