package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mhla/internal/assign"
	"mhla/pkg/mhla"
)

// statusClientClosed is the nginx-convention status for a client that
// disconnected before the response was written. Nothing reads it — the
// connection is gone — but access logs stay honest.
const statusClientClosed = 499

// maxWorkersParam bounds the workers request parameter. The
// engines clamp workers to the available work, but a hostile count
// must never translate into goroutine or state allocations.
const maxWorkersParam = 64

// maxDeadlineMS bounds the deadline_ms request parameter: the anytime
// engines honor it as a wall-clock budget, and an unbounded value
// would let one request hold a worker slot indefinitely.
const maxDeadlineMS = 60_000

// maxSweepSizes bounds the sizes of one sweep request.
const maxSweepSizes = 64

// maxBatchApps bounds the applications of one batch request.
const maxBatchApps = 32

// maxBatchObjectives bounds the objectives of one batch request (only
// three distinct objectives exist; anything longer is grid-inflation
// abuse).
const maxBatchObjectives = 3

// maxBatchJobs bounds the expanded apps x sizes x objectives grid of
// one batch request: one slot of the in-flight semaphore may carry at
// most this many flow runs.
const maxBatchJobs = 512

// errorBody is the typed error envelope of every non-2xx response:
//
//	{"error": {"code": "invalid_program", "message": "..."}}
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// apiError is a request failure on its way to the wire.
type apiError struct {
	status int
	code   string
	msg    string
	// retryAfter, when positive, is sent as a Retry-After header (in
	// seconds) — the load-shedding paths set it so well-behaved clients
	// back off instead of hammering a full intake pool.
	retryAfter int
}

func badRequest(code, format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: code, msg: fmt.Sprintf(format, args...)}
}

// Error makes apiError a plain error too, so the async job runner can
// carry one through the jobs package's error slot and recover the
// typed envelope on the other side.
func (e *apiError) Error() string { return fmt.Sprintf("%s: %s", e.code, e.msg) }

// responseWriteTimeout bounds writing one response: a client that
// stops reading has the write fail at the deadline — freeing the
// handler's compute slot and keeping graceful shutdown within its
// budget — instead of pinning both forever. Every response write sets
// a fresh deadline, so keep-alive connections with long gaps between
// requests are unaffected.
const responseWriteTimeout = 30 * time.Second

// armWriteDeadline applies the per-response write deadline
// (best-effort — httptest recorders don't support deadlines).
func armWriteDeadline(w http.ResponseWriter) {
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(responseWriteTimeout))
}

func (e *apiError) write(w http.ResponseWriter) {
	body, err := json.MarshalIndent(errorBody{Error: errorDetail{Code: e.code, Message: e.msg}}, "", "  ")
	if err != nil {
		// Marshalling two strings cannot fail; keep the typed contract
		// anyway.
		body = []byte(`{"error":{"code":"internal","message":"error encoding failed"}}`)
	}
	armWriteDeadline(w)
	w.Header().Set("Content-Type", "application/json")
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	w.WriteHeader(e.status)
	w.Write(body)
}

// writeJSON writes a 200 response with exactly the given body bytes.
// The compute endpoints pass the facade encoders' output through
// untouched — that is the byte-identity guarantee.
func writeJSON(w http.ResponseWriter, body []byte) {
	armWriteDeadline(w)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// bodyReadTimeout bounds reading one request body: a client
// trickling bytes has its read fail at the deadline (and its intake
// slot freed) instead of pinning the slot forever. Long computes are
// unaffected — the deadline is cleared again once the body is read.
const bodyReadTimeout = 30 * time.Second

// readBody reads one request body whole under the read deadline and
// the size cap. Any body over the cap is 413 too_large, also one whose
// bytes after its first JSON object are only whitespace. A body that
// declares a length within the cap is read into one buffer of that
// size.
func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, *apiError) {
	// Best-effort (httptest recorders don't support deadlines): bound
	// the body read, then clear the deadline so neither the compute
	// phase nor the next keep-alive request inherits it.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	defer rc.SetReadDeadline(time.Time{})
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	var data []byte
	var err error
	if n := r.ContentLength; 0 < n && n <= maxBytes {
		data, err = readSized(body, n)
	} else {
		data, err = io.ReadAll(body)
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &apiError{status: http.StatusRequestEntityTooLarge, code: "too_large",
				msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
		}
		return nil, badRequest("bad_request", "malformed request: %v", err)
	}
	return data, nil
}

// readSized reads r to EOF like io.ReadAll, starting from one buffer
// with room for n bytes and one more, so the read that meets EOF after
// n bytes needs no growth. A longer body still reads whole (the buffer
// grows as io.ReadAll's would), so the size cap and its 413 do not
// depend on the declared length being true.
func readSized(r io.Reader, n int64) ([]byte, error) {
	b := make([]byte, 0, n+1)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// decodeStrict is the one strict JSON decoder of the service: it
// decodes exactly one object from data into dst, rejecting unknown
// fields and trailing data. Request bodies and the nested request of a
// job submission both go through it.
func decodeStrict(data []byte, dst any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return badRequest("bad_request", "malformed request: %v", err)
	}
	if dec.More() {
		return badRequest("bad_request", "trailing data after request object")
	}
	return nil
}

// searchParams are the flow knobs shared by the compute endpoints,
// mirroring the facade options in snake_case.
type searchParams struct {
	Engine       string `json:"engine,omitempty"`
	Objective    string `json:"objective,omitempty"`
	Policy       string `json:"policy,omitempty"`
	Workers      int    `json:"workers,omitempty"`
	MaxStates    int    `json:"max_states,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
	DeadlineMS   int64  `json:"deadline_ms,omitempty"`
	DisableTE    bool   `json:"disable_te,omitempty"`
	NoInPlace    bool   `json:"no_in_place,omitempty"`
	AbsoluteGain bool   `json:"absolute_gain,omitempty"`
}

// options maps the wire knobs onto facade options. maxStates is the
// server's guardrail cap for exact-engine state budgets.
func (p searchParams) options(maxStates int) ([]mhla.Option, *apiError) {
	var opts []mhla.Option
	if p.Engine != "" {
		e, err := mhla.ParseEngine(p.Engine)
		if err != nil {
			return nil, badRequest("invalid_option", "%v", err)
		}
		opts = append(opts, mhla.WithEngine(e))
	}
	if p.Objective != "" {
		o, err := mhla.ParseObjective(p.Objective)
		if err != nil {
			return nil, badRequest("invalid_option", "%v", err)
		}
		opts = append(opts, mhla.WithObjective(o))
	}
	if p.Policy != "" {
		pol, err := mhla.ParsePolicy(p.Policy)
		if err != nil {
			return nil, badRequest("invalid_option", "%v", err)
		}
		opts = append(opts, mhla.WithPolicy(pol))
	}
	if p.Workers < 0 || p.Workers > maxWorkersParam {
		return nil, badRequest("invalid_option", "workers %d out of range [0, %d]", p.Workers, maxWorkersParam)
	}
	if p.Workers > 0 {
		opts = append(opts, mhla.WithWorkers(p.Workers))
	}
	if p.MaxStates < 0 || p.MaxStates > maxStates {
		return nil, badRequest("invalid_option", "max_states %d out of range [0, %d]", p.MaxStates, maxStates)
	}
	if p.Seed != 0 {
		opts = append(opts, mhla.WithSeed(p.Seed))
	}
	if p.DeadlineMS < 0 || p.DeadlineMS > maxDeadlineMS {
		return nil, badRequest("invalid_option", "deadline_ms %d out of range [0, %d]", p.DeadlineMS, maxDeadlineMS)
	}
	if p.DeadlineMS > 0 {
		opts = append(opts, mhla.WithDeadline(time.Duration(p.DeadlineMS)*time.Millisecond))
	}
	if p.MaxStates > 0 {
		opts = append(opts, mhla.WithMaxStates(p.MaxStates))
	} else if maxStates < assign.DefaultMaxStates {
		// The facade default is itself a guardrail; enforce the server
		// cap only when it is tighter.
		opts = append(opts, mhla.WithMaxStates(maxStates))
	}
	if p.DisableTE {
		opts = append(opts, mhla.WithoutTE())
	}
	if p.NoInPlace {
		opts = append(opts, mhla.WithoutInPlace())
	}
	if p.AbsoluteGain {
		opts = append(opts, mhla.WithAbsoluteGain())
	}
	return opts, nil
}

// programRef selects the program of a compute request: exactly one of
// a catalog application name (with optional scale) or an inline
// interchange-format program.
type programRef struct {
	App     string          `json:"app,omitempty"`
	Scale   string          `json:"scale,omitempty"`
	Program json.RawMessage `json:"program,omitempty"`
}

// platformSelection is the platform choice of a run or simulate
// request: a full interchange-format platform or the L1 capacity of
// the standard two-level platform, mutually exclusive. Neither means
// the default two-level platform.
type platformSelection struct {
	Platform json.RawMessage `json:"platform,omitempty"`
	L1Bytes  int64           `json:"l1_bytes,omitempty"`
}

// resolve validates the selection and builds the selected platform.
func (sel *platformSelection) resolve() (*mhla.Platform, *apiError) {
	if len(sel.Platform) > 0 && sel.L1Bytes != 0 {
		return nil, badRequest("bad_request", "at most one of platform and l1_bytes may be set")
	}
	if len(sel.Platform) > 0 {
		plat, err := mhla.DecodePlatform(sel.Platform)
		if err != nil {
			return nil, badRequest("invalid_platform", "%v", err)
		}
		return plat, nil
	}
	if sel.L1Bytes < 0 {
		return nil, badRequest("invalid_option", "l1_bytes %d must be positive", sel.L1Bytes)
	}
	if sel.L1Bytes == 0 {
		return mhla.TwoLevel(mhla.DefaultL1), nil
	}
	return mhla.TwoLevel(sel.L1Bytes), nil
}

// runRequest is the POST /v1/run body.
type runRequest struct {
	programRef
	platformSelection
	searchParams
}

// sweepRequest is the POST /v1/sweep body. The sweep constructs the
// standard two-level platform per size, so there is no platform field.
type sweepRequest struct {
	programRef
	// Sizes are the L1 capacities to sweep; empty means the standard
	// 256 B .. 64 KiB half-power-of-two ladder. Duplicates are
	// rejected.
	Sizes []int64 `json:"sizes,omitempty"`
	searchParams
}

func (req *sweepRequest) validateSizes() *apiError {
	if len(req.Sizes) > maxSweepSizes {
		return badRequest("bad_request", "%d sweep sizes exceed the limit of %d", len(req.Sizes), maxSweepSizes)
	}
	seen := make(map[int64]bool, len(req.Sizes))
	for _, s := range req.Sizes {
		if s <= 0 {
			return badRequest("invalid_option", "sweep size %d must be positive", s)
		}
		// Duplicates would evaluate one point twice and, on the
		// warm-started branch-and-bound chain, silently skew the
		// reported sweep; reject instead of deduplicating.
		if seen[s] {
			return badRequest("invalid_option", "duplicate sweep size %d", s)
		}
		seen[s] = true
	}
	return nil
}

// batchRequest is the POST /v1/batch body: a catalog-app x L1-size x
// objective Explorer grid.
type batchRequest struct {
	// Apps are catalog application names.
	Apps []string `json:"apps"`
	// Scale selects paper (default) or test builds.
	Scale string `json:"scale,omitempty"`
	// L1Sizes are the on-chip capacities; empty means the standard
	// sweep sizes.
	L1Sizes []int64 `json:"l1_sizes,omitempty"`
	// Objectives are the search objectives; empty means energy.
	Objectives []string `json:"objectives,omitempty"`
	searchParams
}

// validate applies the batch intake rules (the batch counterpart of
// sweepRequest.validateSizes): field exclusivity, count and size
// limits and the expanded-grid bound.
func (req *batchRequest) validate() *apiError {
	if req.Objective != "" {
		return badRequest("bad_request", "batch requests use objectives, not objective")
	}
	if len(req.Apps) == 0 {
		return badRequest("bad_request", "apps must name at least one catalog application")
	}
	if len(req.Apps) > maxBatchApps {
		return badRequest("bad_request", "%d apps exceed the limit of %d", len(req.Apps), maxBatchApps)
	}
	if len(req.L1Sizes) > maxSweepSizes {
		return badRequest("bad_request", "%d l1_sizes exceed the limit of %d", len(req.L1Sizes), maxSweepSizes)
	}
	for _, size := range req.L1Sizes {
		if size <= 0 {
			return badRequest("invalid_option", "l1 size %d must be positive", size)
		}
	}
	if len(req.Objectives) > maxBatchObjectives {
		return badRequest("bad_request", "%d objectives exceed the limit of %d", len(req.Objectives), maxBatchObjectives)
	}
	// Bound the expanded grid: one slot may carry at most maxBatchJobs
	// flow runs (empty sizes/objectives fall back to the 17 standard
	// sweep sizes / 1 objective in Grid.Jobs).
	sizeCount, objCount := len(req.L1Sizes), len(req.Objectives)
	if sizeCount == 0 {
		sizeCount = len(mhla.DefaultSweepSizes())
	}
	if objCount == 0 {
		objCount = 1
	}
	if jobs := len(req.Apps) * sizeCount * objCount; jobs > maxBatchJobs {
		return badRequest("bad_request", "batch grid expands to %d jobs, exceeding the limit of %d",
			jobs, maxBatchJobs)
	}
	return nil
}

// batchJobJSON is one job of a batch response; exactly one of result
// and error is set.
type batchJobJSON struct {
	Label  string          `json:"label"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

type batchResponse struct {
	Jobs []batchJobJSON `json:"jobs"`
}

// appJSON is one catalog entry of the GET /v1/apps response.
type appJSON struct {
	Name        string `json:"name"`
	Domain      string `json:"domain"`
	Description string `json:"description"`
	L1Bytes     int64  `json:"l1_bytes"`
}

// healthJSON is the GET /healthz response.
type healthJSON struct {
	Status string `json:"status"`
	Stats
}
