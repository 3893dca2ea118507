package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"time"

	"mhla/internal/jobs"
	"mhla/pkg/mhla"
)

// Job priorities span [0, maxJobPriority]; higher runs first. Omitted
// means defaultJobPriority, the middle of the range, so clients can
// both boost and deprioritize relative to the default.
const (
	maxJobPriority     = 9
	defaultJobPriority = 5
)

// jobSubmitRequest is the POST /v1/jobs body: an async wrapper around
// one synchronous compute request. kind selects the endpoint the
// nested request object belongs to.
type jobSubmitRequest struct {
	Kind     string          `json:"kind"`
	Priority *int            `json:"priority,omitempty"`
	Request  json.RawMessage `json:"request"`
}

// buildWork decodes and validates the nested request of a job
// submission through its kind's computeKinds entry. The validation
// path is exactly the synchronous endpoint's: the same strict decode
// rules, the same typed rejections, the same work value — which is
// what keeps async results byte-identical to sync responses.
func (s *Server) buildWork(kind string, raw json.RawMessage) (work, *apiError) {
	if len(raw) == 0 {
		return nil, badRequest("bad_request", "request must carry the nested compute request object")
	}
	build, ok := computeKinds[kind]
	if !ok {
		return nil, badRequest("bad_request", "unknown kind %q (want run, sweep, batch or simulate)", kind)
	}
	return build(s, raw)
}

// serverTask adapts a validated work value to the jobs.Task interface.
// The success body lands in the task's own field (read back by the
// result endpoint only after a done snapshot — the manager's lock
// orders the write against that read); failures travel through the
// error slot as the typed *apiError, so the result endpoint reproduces
// exactly the envelope the synchronous endpoint would have written.
type serverTask struct {
	s    *Server
	wk   work
	body []byte
	// jobKind and jobRaw are the submission's kind plus raw nested
	// request bytes — what the persistence journal records, so a
	// restarted server can rebuild the work value through the same
	// buildWork path the original submission used.
	jobKind string
	jobRaw  json.RawMessage
}

func (t *serverTask) Run(ctx context.Context, publish func(progress any)) error {
	progress := func(p mhla.Progress) {
		if t.s.cfg.Progress != nil {
			t.s.cfg.Progress(p)
		}
		publish(progressJSON(p))
	}
	body, apiErr := t.wk.execute(ctx, t.s, progress)
	if apiErr != nil {
		// A context error means the job was canceled (or the manager is
		// closing) — report the raw ctx error so the manager records
		// canceled, not failed.
		if err := ctx.Err(); err != nil {
			return err
		}
		return apiErr
	}
	t.body = body
	return nil
}

// jobProgressJSON is the wire form of one flow progress snapshot, the
// progress field of job envelopes and event streams.
type jobProgressJSON struct {
	Phase  string `json:"phase"`
	Engine string `json:"engine,omitempty"`
	States int    `json:"states,omitempty"`
	Iter   int    `json:"iter,omitempty"`
	// BestScore is omitted until the search has a first complete state
	// (its internal sentinel is +Inf, which JSON cannot carry).
	BestScore *float64 `json:"best_score,omitempty"`
}

// progressJSON renders a snapshot. A phase entry (the snapshot that
// opens a phase, before any engine reports) carries only its phase.
func progressJSON(p mhla.Progress) jobProgressJSON {
	out := jobProgressJSON{Phase: string(p.Phase)}
	if p.Phase == mhla.PhaseAssign && p.Engine != "" {
		out.Engine = p.Engine.String()
		out.States = p.States
		out.Iter = p.Iter
		if !math.IsInf(p.BestScore, 0) && !math.IsNaN(p.BestScore) {
			score := p.BestScore
			out.BestScore = &score
		}
	}
	return out
}

// jobJSON is the job envelope of the /v1/jobs endpoints (and each line
// of the events stream).
type jobJSON struct {
	ID       string       `json:"id"`
	Kind     string       `json:"kind,omitempty"`
	Tenant   string       `json:"tenant"`
	Priority int          `json:"priority"`
	State    string       `json:"state"`
	Position *int         `json:"queue_position,omitempty"`
	Progress any          `json:"progress,omitempty"`
	Error    *errorDetail `json:"error,omitempty"`
	Created  time.Time    `json:"created"`
	Started  *time.Time   `json:"started,omitempty"`
	Finished *time.Time   `json:"finished,omitempty"`
}

func jobEnvelope(st jobs.Snapshot) jobJSON {
	out := jobJSON{
		ID:       st.ID,
		Tenant:   st.Tenant,
		Priority: st.Priority,
		State:    string(st.State),
		Progress: st.Progress,
		Created:  st.Created,
	}
	if t, ok := st.Task.(*serverTask); ok {
		out.Kind = t.jobKind
	}
	if st.State == jobs.Queued && st.Position >= 0 {
		pos := st.Position
		out.Position = &pos
	}
	if st.State == jobs.Failed {
		e := failureEnvelope(st.Err)
		out.Error = &errorDetail{Code: e.code, Message: e.msg}
	}
	if !st.Started.IsZero() {
		started := st.Started
		out.Started = &started
	}
	if !st.Finished.IsZero() {
		finished := st.Finished
		out.Finished = &finished
	}
	return out
}

// failureEnvelope is the wire error of a failed job: its result fetch
// writes it whole (exactly what the synchronous endpoint would have
// written) and its envelope carries the code and message.
// Anything that is not an *apiError (a task panic, say) keeps a fixed
// message — the same sanitization discipline as mapRunError.
func failureEnvelope(err error) *apiError {
	var apiErr *apiError
	if errors.As(err, &apiErr) {
		return apiErr
	}
	return &apiError{status: http.StatusInternalServerError, code: "internal",
		msg: "internal error running the job"}
}

// tenantOf derives the fairness bucket of a request: authenticated
// clients bucket per API key (hashed — the bucket name is echoed in
// job envelopes and must not leak the credential), anonymous clients
// per remote host.
func tenantOf(r *http.Request) string {
	if key := r.Header.Get("X-API-Key"); key != "" {
		sum := sha256.Sum256([]byte(key))
		return "key:" + hex.EncodeToString(sum[:8])
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

func jobNotFound(id string) *apiError {
	return &apiError{status: http.StatusNotFound, code: "unknown_job",
		msg: "unknown (or expired) job " + id}
}

// writeJobJSON writes a job envelope with the given status.
func writeJobJSON(w http.ResponseWriter, status int, st jobs.Snapshot) {
	body, err := json.MarshalIndent(jobEnvelope(st), "", "  ")
	if err != nil {
		(&apiError{status: http.StatusInternalServerError, code: "internal",
			msg: "error encoding the job"}).write(w)
		return
	}
	armWriteDeadline(w)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// handleJobSubmit serves POST /v1/jobs: validate the nested compute
// request (on an intake slot — never a compute slot; the job pool is
// its own bound) and queue it, answering 202 with the job envelope
// immediately.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	data, releaseIntake, ok := s.admit(ctx, w, r)
	if !ok {
		return
	}
	defer releaseIntake()
	var req jobSubmitRequest
	if apiErr := decodeStrict(data, &req); apiErr != nil {
		apiErr.write(w)
		return
	}
	priority := defaultJobPriority
	if req.Priority != nil {
		if *req.Priority < 0 || *req.Priority > maxJobPriority {
			badRequest("invalid_option", "priority %d out of range [0, %d]",
				*req.Priority, maxJobPriority).write(w)
			return
		}
		priority = *req.Priority
	}
	wk, apiErr := s.buildWork(req.Kind, req.Request)
	if apiErr != nil {
		apiErr.write(w)
		return
	}
	st, err := s.jobs.Submit(tenantOf(r), priority, &serverTask{s: s, wk: wk, jobKind: req.Kind, jobRaw: req.Request})
	if err != nil {
		if errors.Is(err, jobs.ErrBacklogFull) {
			// Same shedding contract as the intake pool: 429 plus a
			// Retry-After derived from the backlog depth and the observed
			// job drain rate, so clients back off for as long as the
			// queue ahead of them will actually take.
			hint := retryAfterSeconds(s.jobs.Stats().Queued, s.jobRate.perSec(time.Now()), float64(s.jobs.Workers()))
			(&apiError{status: http.StatusTooManyRequests, code: "backlog_full",
				msg: "job backlog full; retry later", retryAfter: hint}).write(w)
			return
		}
		(&apiError{status: http.StatusServiceUnavailable, code: "shutting_down",
			msg: "job manager is closed"}).write(w)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJobJSON(w, http.StatusAccepted, st)
}

// handleJob serves GET /v1/jobs/{id} (the job envelope) and
// DELETE /v1/jobs/{id} (cancel: queued jobs leave the queue, running
// jobs have their contexts canceled — both promptly).
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodGet:
		st, ok := s.jobs.Get(id)
		if !ok {
			jobNotFound(id).write(w)
			return
		}
		writeJobJSON(w, http.StatusOK, st)
	case http.MethodDelete:
		st, ok := s.jobs.Cancel(id)
		if !ok {
			jobNotFound(id).write(w)
			return
		}
		writeJobJSON(w, http.StatusOK, st)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		(&apiError{status: http.StatusMethodNotAllowed, code: "method_not_allowed",
			msg: r.Method + " not allowed; use GET or DELETE"}).write(w)
	}
}

// handleJobResult serves GET /v1/jobs/{id}/result: for a done job,
// exactly the bytes the synchronous endpoint would have written (the
// async byte-identity contract); for a failed job, exactly the typed
// error envelope; 409 while the job is still queued or running and 410
// once it is canceled.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	id := r.PathValue("id")
	st, ok := s.jobs.Get(id)
	if !ok {
		jobNotFound(id).write(w)
		return
	}
	switch st.State {
	case jobs.Done:
		task, ok := st.Task.(*serverTask)
		if !ok {
			(&apiError{status: http.StatusInternalServerError, code: "internal",
				msg: "job carries no result"}).write(w)
			return
		}
		writeJSON(w, task.body)
	case jobs.Failed:
		failureEnvelope(st.Err).write(w)
	case jobs.Canceled:
		(&apiError{status: http.StatusGone, code: "canceled",
			msg: "job " + id + " was canceled"}).write(w)
	default:
		(&apiError{status: http.StatusConflict, code: "not_finished",
			msg: "job " + id + " is " + string(st.State) + "; poll the job or stream its events"}).write(w)
	}
}

// handleJobEvents serves GET /v1/jobs/{id}/events: an NDJSON stream of
// job envelopes — one line per observable change (state transitions,
// queue movement, engine progress), flushed as they happen, ending
// with the terminal envelope.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	id := r.PathValue("id")
	// Subscribe before the first snapshot so no transition between the
	// two is lost (the channel coalesces, so at worst a spurious wakeup
	// re-reads an unchanged snapshot).
	notify, stop, ok := s.jobs.Watch(id)
	if !ok {
		jobNotFound(id).write(w)
		return
	}
	defer stop()
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	writeEvent := func(st jobs.Snapshot) bool {
		rc.SetWriteDeadline(time.Now().Add(responseWriteTimeout))
		if err := enc.Encode(jobEnvelope(st)); err != nil {
			return false
		}
		rc.Flush()
		return true
	}
	st, ok := s.jobs.Get(id)
	if !ok {
		return
	}
	if !writeEvent(st) || st.State.Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-notify:
			st, ok := s.jobs.Get(id)
			if !ok {
				// Purged mid-stream (the TTL janitor); the stream just ends.
				return
			}
			if !writeEvent(st) || st.State.Terminal() {
				return
			}
		}
	}
}
