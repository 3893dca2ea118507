package assign

import (
	"context"

	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// OracleGreedy runs the clone-per-move reference greedy engine
// (greedy_oracle_test.go) with Search's iteration-cap default, for the
// external differential tests.
func OracleGreedy(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *Result {
	if opts.MaxGreedyIters == 0 {
		opts.MaxGreedyIters = 10_000
	}
	return oracleGreedySearch(ctx, ws, plat, opts)
}
