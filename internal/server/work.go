package server

import (
	"context"
	"encoding/json"

	"mhla/pkg/mhla"
)

// work is a validated, program-resolved compute request, ready to run
// on a compute slot (or an async job worker). Building a work value is
// intake-stage: decode, validate, resolve — cheap and bounded. execute
// is the compute stage. The same work value produces byte-identical
// response bodies whether it runs under a synchronous handler or an
// async job, which is what makes the job-mode differential guarantee
// hold by construction: both paths are this one code path.
type work interface {
	// execute runs the compute stage and returns exactly the bytes the
	// synchronous endpoint writes on success. progress, when non-nil,
	// observes the flow (a job's progress also calls the server-wide
	// observer; see serverTask.Run).
	execute(ctx context.Context, s *Server, progress mhla.ProgressFunc) ([]byte, *apiError)
}

// buildFunc turns the bytes of one compute request (an HTTP body or a
// job's nested request) into a validated work value.
type buildFunc func(s *Server, body []byte) (work, *apiError)

// computeKinds is the one kind dispatch: /v1/<kind> serves each entry
// synchronously, and job submissions and journal replay build their
// work through the same entry, so both paths decode and validate the
// same request type.
var computeKinds = map[string]buildFunc{
	"run":      decodeWork[runRequest],
	"sweep":    decodeWork[sweepRequest],
	"batch":    decodeWork[batchRequest],
	"simulate": decodeWork[simulateRequest],
}

// decodeWork strictly decodes one R and validates it into a work value.
func decodeWork[R any, P interface {
	*R
	work(*Server) (work, *apiError)
}](s *Server, body []byte) (work, *apiError) {
	req := P(new(R))
	if apiErr := decodeStrict(body, req); apiErr != nil {
		return nil, apiErr
	}
	return req.work(s)
}

// flowOptions assembles the shared option prefix of a compute call:
// the cached workspace plus the progress observer.
func flowOptions(ws *mhla.Workspace, progress mhla.ProgressFunc) []mhla.Option {
	opts := []mhla.Option{mhla.WithWorkspace(ws)}
	if progress != nil {
		opts = append(opts, mhla.WithProgress(progress))
	}
	return opts
}

// runWork is the validated form of a POST /v1/run body.
type runWork struct {
	program    resolvedProgram
	plat       *mhla.Platform
	searchOpts []mhla.Option
}

// work validates the request and resolves its program.
func (req *runRequest) work(s *Server) (work, *apiError) {
	searchOpts, apiErr := req.options(s.cfg.MaxStates)
	if apiErr != nil {
		return nil, apiErr
	}
	plat, apiErr := req.platformSelection.resolve()
	if apiErr != nil {
		return nil, apiErr
	}
	program, apiErr := s.resolveProgram(req.programRef)
	if apiErr != nil {
		return nil, apiErr
	}
	return &runWork{program: program, plat: plat, searchOpts: searchOpts}, nil
}

func (wk *runWork) execute(ctx context.Context, s *Server, progress mhla.ProgressFunc) ([]byte, *apiError) {
	ws, apiErr := s.workspaceFor(wk.program)
	if apiErr != nil {
		return nil, apiErr
	}
	opts := append(flowOptions(ws, progress), mhla.WithPlatform(wk.plat))
	opts = append(opts, wk.searchOpts...)
	res, err := mhla.Run(ctx, nil, opts...)
	if err != nil {
		return nil, mapRunError(err)
	}
	body, err := mhla.ResultJSON(res)
	if err != nil {
		return nil, mapRunError(err)
	}
	return body, nil
}

// sweepWork is the validated form of a POST /v1/sweep body.
type sweepWork struct {
	program    resolvedProgram
	sizes      []int64
	searchOpts []mhla.Option
}

func (req *sweepRequest) work(s *Server) (work, *apiError) {
	if apiErr := req.validateSizes(); apiErr != nil {
		return nil, apiErr
	}
	searchOpts, apiErr := req.options(s.cfg.MaxStates)
	if apiErr != nil {
		return nil, apiErr
	}
	program, apiErr := s.resolveProgram(req.programRef)
	if apiErr != nil {
		return nil, apiErr
	}
	return &sweepWork{
		program:    program,
		sizes:      req.Sizes,
		searchOpts: searchOpts,
	}, nil
}

func (wk *sweepWork) execute(ctx context.Context, s *Server, progress mhla.ProgressFunc) ([]byte, *apiError) {
	ws, apiErr := s.workspaceFor(wk.program)
	if apiErr != nil {
		return nil, apiErr
	}
	opts := append(flowOptions(ws, progress), wk.searchOpts...)
	sw, err := mhla.SweepL1(ctx, nil, wk.sizes, opts...)
	if err != nil {
		return nil, mapRunError(err)
	}
	body, err := sw.JSON()
	if err != nil {
		return nil, mapRunError(err)
	}
	return body, nil
}

// batchWork is the validated form of a POST /v1/batch body: the
// catalog apps with the programs resolved at intake, in request order.
type batchWork struct {
	apps       []string
	programs   []resolvedProgram
	l1Sizes    []int64
	objectives []mhla.Objective
	searchOpts []mhla.Option
}

func (req *batchRequest) work(s *Server) (work, *apiError) {
	if apiErr := req.validate(); apiErr != nil {
		return nil, apiErr
	}
	searchOpts, apiErr := req.options(s.cfg.MaxStates)
	if apiErr != nil {
		return nil, apiErr
	}
	var objectives []mhla.Objective
	for _, name := range req.Objectives {
		o, err := mhla.ParseObjective(name)
		if err != nil {
			return nil, badRequest("invalid_option", "%v", err)
		}
		objectives = append(objectives, o)
	}
	// Resolve the apps now so unknown apps are rejected at intake (the
	// typed 404), not when the job runs.
	programs := make([]resolvedProgram, len(req.Apps))
	for i, ref := range req.Apps {
		if programs[i], apiErr = s.resolveProgram(programRef{App: ref, Scale: req.Scale}); apiErr != nil {
			return nil, apiErr
		}
	}
	return &batchWork{
		apps:       req.Apps,
		programs:   programs,
		l1Sizes:    req.L1Sizes,
		objectives: objectives,
		searchOpts: searchOpts,
	}, nil
}

func (wk *batchWork) execute(ctx context.Context, s *Server, progress mhla.ProgressFunc) ([]byte, *apiError) {
	grid := mhla.Grid{
		L1Sizes:    wk.l1Sizes,
		Objectives: wk.objectives,
	}
	// Resolve every app through the workspace cache so repeated batch
	// requests (and concurrent run/sweep requests for the same apps)
	// share one compiled analysis per program.
	workspaces := make(map[*mhla.Program]*mhla.Workspace, len(wk.apps))
	for i, name := range wk.apps {
		ws, apiErr := s.workspaceFor(wk.programs[i])
		if apiErr != nil {
			return nil, apiErr
		}
		// Run the grid jobs against the cached workspace's own program
		// value: WithWorkspace checks program identity.
		workspaces[ws.Program] = ws
		grid.Apps = append(grid.Apps, mhla.GridApp{Name: name, Program: ws.Program})
	}

	jobs := grid.Jobs()
	for i := range jobs {
		jobs[i].Options = append([]mhla.Option{mhla.WithWorkspace(workspaces[jobs[i].Program])}, jobs[i].Options...)
	}
	// The search options go on the Explorer, not the grid, so their
	// workers setting sizes the job pool.
	ex := mhla.Explorer{Options: wk.searchOpts}
	if progress != nil {
		ex.Options = append([]mhla.Option{mhla.WithProgress(progress)}, wk.searchOpts...)
	}
	results, err := ex.Explore(ctx, jobs)
	if err != nil {
		return nil, mapRunError(err)
	}
	resp := batchResponse{Jobs: make([]batchJobJSON, 0, len(results))}
	for _, jr := range results {
		job := batchJobJSON{Label: jr.Label}
		if jr.Err != nil {
			// Same sanitization discipline as mapRunError: input-derived
			// and context errors pass through, anything unexpected stays
			// a fixed message.
			job.Error = mapRunError(jr.Err).msg
		} else {
			body, err := mhla.ResultJSON(jr.Result)
			if err != nil {
				return nil, mapRunError(err)
			}
			job.Result = body
		}
		resp.Jobs = append(resp.Jobs, job)
	}
	body, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, mapRunError(err)
	}
	return body, nil
}

// simulateWork is the validated form of a POST /v1/simulate body.
type simulateWork struct {
	program  resolvedProgram
	plat     *mhla.Platform
	cacheCfg mhla.CacheConfig
}

func (req *simulateRequest) work(s *Server) (work, *apiError) {
	plat, apiErr := req.platformSelection.resolve()
	if apiErr != nil {
		return nil, apiErr
	}
	cacheCfg, apiErr := req.cacheConfig(plat)
	if apiErr != nil {
		return nil, apiErr
	}
	program, apiErr := s.resolveProgram(req.programRef)
	if apiErr != nil {
		return nil, apiErr
	}
	return &simulateWork{program: program, plat: plat, cacheCfg: cacheCfg}, nil
}

func (wk *simulateWork) execute(ctx context.Context, s *Server, progress mhla.ProgressFunc) ([]byte, *apiError) {
	ws, apiErr := s.workspaceFor(wk.program)
	if apiErr != nil {
		return nil, apiErr
	}
	opts := append(flowOptions(ws, progress), mhla.WithPlatform(wk.plat))
	res, err := mhla.Simulate(ctx, nil, wk.cacheCfg, opts...)
	if err != nil {
		return nil, mapSimulateError(err)
	}
	body, err := mhla.SimulateJSON(res)
	if err != nil {
		return nil, mapSimulateError(err)
	}
	return body, nil
}
