package mhla

import (
	"mhla/internal/assign"
	"mhla/internal/core"
	"mhla/internal/explore"
	"mhla/internal/layout"
	"mhla/internal/model"
	"mhla/internal/multitask"
	"mhla/internal/pareto"
	"mhla/internal/platform"
	"mhla/internal/report"
	"mhla/internal/reuse"
	"mhla/internal/te"
	"mhla/internal/workspace"
)

// The stable types of the flow, re-exported as aliases so values
// cross the facade boundary unchanged (methods included).
type (
	// Program is an application model: arrays plus top-level blocks
	// of loop nests with affine accesses.
	Program = model.Program
	// Array is one array of a program.
	Array = model.Array
	// Block is one top-level block (phase) of a program.
	Block = model.Block
	// Node is a statement of a loop body (Loop, Access or Compute).
	Node = model.Node
	// Expr is an affine index expression.
	Expr = model.Expr

	// Platform is the target architecture: memory layers plus an
	// optional DMA engine.
	Platform = platform.Platform
	// Layer is one memory layer of a platform.
	Layer = platform.Layer
	// DMA describes a platform's block-transfer engine.
	DMA = platform.DMA

	// Analysis is the data-reuse analysis: the copy-candidate chains
	// of a program.
	Analysis = reuse.Analysis
	// Workspace is the compile-once, platform-independent analysis of
	// one program (validation, reuse analysis, lifetime tables).
	// Compile one with Compile and reuse it across Run/SweepL1 calls
	// via WithWorkspace; the batch Explorer compiles one per distinct
	// program automatically.
	Workspace = workspace.Workspace
	// Chain is one reuse chain (an array's copy-candidate hierarchy
	// for one access group).
	Chain = reuse.Chain
	// Policy is the copy transfer policy (Slide or Refetch).
	Policy = reuse.Policy

	// Assignment is the MHLA step-1 decision: array homes plus
	// instantiated copy candidates per layer.
	Assignment = assign.Assignment
	// Cost is the evaluated performance and energy of an assignment.
	Cost = assign.Cost
	// EvalOptions select the assignment evaluation mode.
	EvalOptions = assign.EvalOptions
	// StreamKey identifies one block-transfer stream.
	StreamKey = assign.StreamKey
	// Objective selects what the search minimizes.
	Objective = assign.Objective
	// Engine selects the search algorithm by registry name.
	Engine = assign.Engine
	// EngineInfo describes one registered engine and its capability
	// flags (see Engines).
	EngineInfo = assign.EngineInfo
	// EngineRun is one portfolio member's provenance record
	// (SearchResult.Portfolio).
	EngineRun = assign.EngineRun
	// SearchResult is the outcome of the assignment step alone.
	SearchResult = assign.Result
	// OptionError is the typed rejection of an invalid option or
	// facade input (negative worker counts, non-positive L1 sizes,
	// platforms without layers, ...); recover it with errors.As.
	OptionError = assign.OptionError

	// Plan is the time-extension step-2 decision: the per-stream
	// prefetch schedule of the paper's Figure 1.
	Plan = te.Plan

	// Result is the outcome of the full flow: the assignment, the
	// plan, and the four operating points Original, MHLA, TE, Ideal.
	Result = core.Result
	// Gains are a result's operating points normalized against the
	// Original point, the way the paper's figures report them.
	Gains = core.Gains
	// Phase names a stage of the flow for progress reporting.
	Phase = assign.Phase
	// Progress is one progress snapshot: a phase entry, or an engine
	// snapshot of the assign phase.
	Progress = assign.Progress
	// ProgressFunc receives progress snapshots.
	ProgressFunc = assign.ProgressFunc

	// Sweep is an L1-size trade-off exploration of one program.
	Sweep = explore.Sweep
	// SweepPoint is one evaluated size of a sweep.
	SweepPoint = explore.Point

	// ParetoPoint is one candidate of a trade-off frontier.
	ParetoPoint = pareto.Point

	// AppResult pairs an application name with its flow result for
	// the figure renderers.
	AppResult = report.AppResult

	// LayerMap is the concrete address layout of one memory layer.
	LayerMap = layout.LayerMap

	// Task is one application of a multi-task partitioning problem.
	Task = multitask.Task
	// MultiTaskPlan is a scratchpad partitioning across tasks.
	MultiTaskPlan = multitask.Plan
)

// The flow phases reported through WithProgress.
const (
	PhaseAnalyze  = assign.PhaseAnalyze
	PhaseAssign   = assign.PhaseAssign
	PhaseExtend   = assign.PhaseExtend
	PhaseEvaluate = assign.PhaseEvaluate
)

// Search objectives.
const (
	// Energy minimizes memory-subsystem energy (the primary MHLA
	// objective; performance improves alongside).
	Energy = assign.MinEnergy
	// Time minimizes execution cycles.
	Time = assign.MinTime
	// EDP minimizes the energy-delay product.
	EDP = assign.MinEDP
)

// Search engines.
const (
	// Greedy is the steepest-descent heuristic of the MHLA tool.
	Greedy = assign.Greedy
	// BnB explores the full decision space with lower-bound pruning;
	// optimal for small/medium problems.
	BnB = assign.BranchBound
	// Exhaustive explores the full decision space without pruning; a
	// reference for tests.
	Exhaustive = assign.Exhaustive
	// Stochastic is the seeded large-neighborhood search over
	// assignments: greedy-seeded, byte-reproducible per WithSeed,
	// anytime under WithDeadline.
	Stochastic = assign.Stochastic
	// Portfolio races Greedy, BnB and Stochastic under one
	// WithDeadline and returns the best incumbent with per-member
	// provenance.
	Portfolio = assign.Portfolio
)

// Copy transfer policies.
const (
	// Slide retains still-valid elements across copy updates
	// (exploits inter-iteration reuse).
	Slide = reuse.Slide
	// Refetch transfers the full box on every update (the ablation
	// baseline).
	Refetch = reuse.Refetch
)
