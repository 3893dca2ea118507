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
