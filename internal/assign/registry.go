package assign

import (
	"context"
	"fmt"

	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// This file is the engine registry: the single place search algorithms
// are named, described and dispatched. The transport layers (facade,
// server, CLIs) read one authoritative list of names and capabilities
// from it, so adding an engine is one row in the engines table.

// EngineFunc runs one search algorithm over a precompiled workspace.
// It returns nil when ctx is cancelled before a result exists; the
// anytime engines (Anytime capability) instead return their best
// incumbent, flagged incomplete, once they hold one. Implementations
// must not mutate the workspace and must set Result.Engine; Baseline
// is filled in by Search.
type EngineFunc func(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *Result

// EngineInfo describes one registered engine: its registry name (also
// the wire name transport layers parse) and its capability flags,
// which transport layers and the differential harness read instead of
// hard-coding per-engine knowledge.
type EngineInfo struct {
	// Name is the registry key, e.g. "greedy" or "bnb".
	Name Engine
	// Summary is a one-line human description for engine listings.
	Summary string
	// Exact engines prove optimality: a Complete result is the global
	// optimum, byte-identical to the exhaustive reference.
	Exact bool
	// Anytime engines honor Options.Deadline, returning the best
	// incumbent found so far (flagged incomplete) instead of nil when
	// the deadline or the context expires mid-search.
	Anytime bool
	// Deterministic engines return a pure function of (workspace,
	// platform, options) when no Deadline is set — byte-identical at
	// every worker count and, for seeded engines, per seed.
	Deterministic bool
	// UsesSeed reports whether the engine reads Options.Seed.
	UsesSeed bool
}

type engineEntry struct {
	info EngineInfo
	fn   EngineFunc
}

// engines is the engine registry, sorted by name. It is a fixed
// table: the built-in set is the whole set, so lookups need no lock.
var engines = []engineEntry{
	{EngineInfo{
		Name:          BranchBound,
		Summary:       "parallel branch and bound; optimal for small/medium problems",
		Exact:         true,
		Deterministic: true,
	}, func(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *Result {
		return exactSearch(ctx, ws, plat, opts, true)
	}},
	{EngineInfo{
		Name:          Exhaustive,
		Summary:       "unpruned full enumeration; the reference oracle for tests",
		Exact:         true,
		Deterministic: true,
	}, func(ctx context.Context, ws *workspace.Workspace, plat *platform.Platform, opts Options) *Result {
		return exactSearch(ctx, ws, plat, opts, false)
	}},
	{EngineInfo{
		Name:          Greedy,
		Summary:       "steepest-descent heuristic of the MHLA tool (default)",
		Deterministic: true,
	}, greedySearch},
	{EngineInfo{
		Name:          Stochastic,
		Summary:       "seeded large-neighborhood search over assignments, greedy-seeded",
		Anytime:       true,
		Deterministic: true,
		UsesSeed:      true,
	}, lnsSearch},
	{EngineInfo{
		Name:          Portfolio,
		Summary:       "races greedy, branch and bound and LNS under one deadline",
		Anytime:       true,
		Deterministic: true,
		UsesSeed:      true,
	}, portfolioSearch},
}

// LookupEngine resolves an engine name ("" means the default greedy
// engine). Unknown names fail with a typed *OptionError naming the
// Engine field, the same rejection Options.Validate reports.
func LookupEngine(name Engine) (EngineInfo, EngineFunc, error) {
	name = name.normalized()
	for _, e := range engines {
		if e.info.Name == name {
			return e.info, e.fn, nil
		}
	}
	return EngineInfo{}, nil, &OptionError{Field: "Engine", Reason: fmt.Sprintf("unknown engine %q", name)}
}

// Engines lists the registered engines sorted by name. The slice is
// freshly allocated; callers may keep it.
func Engines() []EngineInfo {
	infos := make([]EngineInfo, len(engines))
	for i, e := range engines {
		infos[i] = e.info
	}
	return infos
}
