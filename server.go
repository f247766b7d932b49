package stubby

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stubby-mr/stubby/internal/jobclient"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/planstore"
	"github.com/stubby-mr/stubby/internal/service"
	"github.com/stubby-mr/stubby/internal/stats"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
	"github.com/stubby-mr/stubby/internal/wf"
)

// Server exposes a Session's Submit lifecycle over HTTP — the handler
// behind the stubbyd command, embeddable in any mux. The API is versioned
// JSON over five routes:
//
//	POST /v1/jobs              submit an optimize-request document → 202 {id, state}
//	GET  /v1/jobs/{id}         status + progress snapshot
//	GET  /v1/jobs/{id}/result  optimize-result document (409 until done)
//	POST /v1/jobs/{id}/cancel  request cancellation
//	GET  /v1/jobs/{id}/events  NDJSON event stream (?from=N resumes at line N)
//	GET  /healthz              liveness + queue shape (200 even while draining)
//	GET  /readyz               readiness (503 the moment Drain begins)
//	GET  /statsz               queue/estimate-cache/plan-store/journal counters
//
// A request document names its plan by value (`plan`) or, key-first, by
// fingerprint (`planFingerprint` + `workflow`, a few hundred bytes). Either
// kind whose key the session's plan store holds — or, for a key-first
// document on a coordinator, a worker's store — is answered 202 with a job
// that is already done, whose result is the stored document written byte
// for byte: nothing is decoded, re-encoded, fingerprinted, queued or
// journaled. A key-first document nobody can answer gets 404
// {"kind":"not_found","op":"probe","message":"plan required…"}, and the
// submitter posts the full document, which is journaled and queued as ever.
//
// Errors travel as {"error": {kind, op, workflow, job, message}} with the
// kind-appropriate HTTP status (429 overloaded, 503 draining or unable to
// journal the submission, 404 unknown job, 409 not finished, ...); Client
// reconstructs them into *Error, so errors.Is/As work identically over the
// wire.
type Server struct {
	sess        *Session
	mux         *http.ServeMux
	retain      int
	retryPerJob time.Duration
	journal     *Journal     // durable job journal (WithJournal), nil without one
	coordinator *Coordinator // cluster dispatch (WithCoordinator), nil without one
	draining    atomic.Bool

	mu       sync.RWMutex
	jobs     map[string]*OptimizeHandle
	order    []string                 // submission order, for terminal-handle pruning
	inflight map[planstore.Key]string // admission key → live job ID (journaled servers)
}

// ServerOption configures a Server under construction.
type ServerOption func(*Server)

// maxRequestBytes bounds the accepted request-document size (annotated
// plans carry profiles and key samples).
const maxRequestBytes = 256 << 20

// jobRetention bounds how many finished (done/failed/canceled) jobs a
// server keeps queryable. When a submission would exceed the bound, the
// oldest finished jobs — with their event logs and results — are forgotten;
// queued and running jobs are never evicted.
const jobRetention = 1024

// retryAfterPerJob is how much Retry-After time each outstanding job
// (queued or running) contributes when the server sheds a submission or
// rejects during drain: a loaded queue tells clients to back off longer, an
// empty one invites a quick retry. The derived hint is clamped to [1, 60]
// whole seconds.
const retryAfterPerJob = time.Second

// NewServer builds the HTTP front end of sess. Job state is in-memory,
// like the queue: a restarted server forgets finished jobs, and a
// long-lived one retains only the jobRetention most recent finished jobs.
func NewServer(sess *Session, opts ...ServerOption) *Server {
	s := &Server{
		sess:        sess,
		mux:         http.NewServeMux(),
		retain:      jobRetention,
		retryPerJob: retryAfterPerJob,
		jobs:        make(map[string]*OptimizeHandle),
		inflight:    make(map[planstore.Key]string),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	if s.journal != nil {
		// A journaled server outlives its process, and so do the job IDs its
		// clients hold: one acknowledged before a crash must name the same
		// job after it (recovery preserves it) or no job at all — never a
		// different job of the next incarnation, whose plan the client would
		// take for its own. So every incarnation numbers its jobs under an
		// epoch of its own, the nanosecond it started.
		sess.jobEpoch = strconv.FormatInt(time.Now().UnixNano(), 36) + "-"
		s.recoverJournaled()
	}
	return s
}

// adopt registers a freshly submitted (or recovered) handle for lookup
// and — on journaled servers — indexes its key as in flight and starts the
// watcher that journals its lifecycle transitions. A job the server answered
// from bytes at hand has no submit record and nothing to recover, so it is
// neither indexed nor watched.
func (s *Server) adopt(h *OptimizeHandle) {
	journaled := s.journal != nil && h.raw == nil
	s.mu.Lock()
	s.jobs[h.ID()] = h
	s.order = append(s.order, h.ID())
	if journaled {
		s.inflight[h.key] = h.ID()
	}
	s.pruneLocked()
	s.mu.Unlock()
	if journaled {
		go s.watch(h)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain gracefully shuts the service down (stubbyd calls it on SIGTERM):
// new submissions are rejected with ErrKindUnavailable, and Drain waits
// for every admitted job to finish. If ctx ends first, all unfinished
// jobs are canceled and Drain keeps waiting for the (now prompt) unwind
// on a background context.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if err := s.sess.Close(ctx); err == nil {
		return nil
	}
	for _, h := range s.handles() {
		h.Cancel()
	}
	return s.sess.Close(context.Background())
}

func (s *Server) handles() []*OptimizeHandle {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hs := make([]*OptimizeHandle, 0, len(s.jobs))
	for _, h := range s.jobs {
		hs = append(hs, h)
	}
	return hs
}

func (s *Server) lookup(r *http.Request) (*OptimizeHandle, error) {
	id := r.PathValue("id")
	s.mu.RLock()
	h, ok := s.jobs[id]
	s.mu.RUnlock()
	if !ok {
		return nil, stubbyerr.New(stubbyerr.KindNotFound, "lookup", "", "", "unknown job %q", id)
	}
	return h, nil
}

// kindStatus maps error kinds onto HTTP statuses.
func kindStatus(k ErrorKind) int {
	switch k {
	case stubbyerr.KindInvalid, stubbyerr.KindUnknownPlanner:
		return http.StatusBadRequest
	case stubbyerr.KindOverloaded:
		return http.StatusTooManyRequests
	case stubbyerr.KindUnavailable:
		return http.StatusServiceUnavailable
	case stubbyerr.KindNotFound:
		return http.StatusNotFound
	case stubbyerr.KindConflict, stubbyerr.KindCanceled:
		return http.StatusConflict
	case stubbyerr.KindDeadline:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterSecs derives the Retry-After hint from the queue's current
// occupancy: every outstanding job (queued or running) contributes
// retryPerJob of expected wait, so a loaded server tells clients to back
// off proportionally instead of hammering it at a fixed cadence. Clamped
// to [1, 60] whole seconds (the header carries integer seconds).
func (s *Server) retryAfterSecs() int {
	q := s.sess.jobQueue()
	wait := time.Duration(q.Queued()+q.Busy()) * s.retryPerJob
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	doc := planio.NewErrorDoc(err)
	w.Header().Set("Content-Type", "application/json")
	kind := stubbyerr.ParseKind(doc.Kind)
	// Shed (429) and drain (503) rejections are retryable by construction;
	// Retry-After tells well-behaved clients when — proportionally to the
	// work outstanding — and Client maps it into its backoff schedule.
	if kind == stubbyerr.KindOverloaded || kind == stubbyerr.KindUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
	}
	w.WriteHeader(kindStatus(kind))
	_ = json.NewEncoder(w).Encode(planio.ErrorEnvelope{Error: doc})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// readBody reads a submission's body into one buffer sized from the declared
// Content-Length (a body that declares none is read to its end), refusing
// anything over the server's bound.
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	tooLarge := stubbyerr.New(stubbyerr.KindInvalid, "submit", "", "",
		"request body exceeds %d bytes", maxRequestBytes)
	if r.ContentLength > maxRequestBytes {
		return nil, tooLarge
	}
	body, err := jobclient.ReadBody(io.LimitReader(r.Body, maxRequestBytes+1), r.ContentLength)
	if err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindInvalid, "submit", "", err)
	}
	if len(body) > maxRequestBytes { // only a body that declared no length can get here
		return nil, tooLarge
	}
	return body, nil
}

// handleSubmit admits one optimize-request document, full or key-first.
// Either kind whose answer is at hand — in the session's plan store, or, for
// a key-first document on a coordinator, on a worker — is answered without
// touching the queue or the journal: the job is born terminal around the
// encoded result document, which GET …/result then writes as is. Otherwise a
// full document is journaled and queued, and a key-first one is refused
// with KindNotFound ("plan required"): the submitter sends the plan. A
// session whose reuse catalog may match refuses every key-first document so
// (answersProbes): only the full document can be checked against it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, stubbyerr.New(stubbyerr.KindUnavailable, "submit", "", "",
			"server is draining"))
		return
	}
	body, err := s.readBody(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	req, err := planio.DecodeRequest(body)
	if err != nil {
		s.writeError(w, stubbyerr.WithKind(stubbyerr.KindInvalid, "submit", "", err))
		return
	}
	oreq := optimizeRequest(req)
	// A client that set a context deadline propagates the remaining budget
	// over the wire; the job's execution context expires with it.
	if ms := r.Header.Get(jobclient.DeadlineHeader); ms != "" {
		if v, perr := strconv.ParseInt(ms, 10, 64); perr == nil && v > 0 {
			oreq.deadline = time.Now().Add(time.Duration(v) * time.Millisecond)
		}
	}
	// The plan is fingerprinted once, here; the in-flight index, the store
	// lookup and the worker's store key all read this one digest.
	wfName, fp := req.Workflow, req.Fingerprint
	if req.Plan != nil {
		wfName, fp = req.Plan.Name, wf.FingerprintWorkflow(req.Plan)
	}
	a, err := s.sess.admit(oreq, wfName, fp)
	if err != nil {
		s.writeError(w, err)
		return
	}
	var doc []byte
	if ps := a.target.storeFor(req.Plan); ps != nil {
		// The one store lookup of a hit. A failed or empty lookup is a miss,
		// counted by the GetOrCompute that then runs the request.
		doc, _, _ = ps.Peek(a.key)
	}
	if doc == nil && req.Plan == nil {
		if doc, err = s.forwardProbe(r.Context(), a); err != nil {
			s.writeError(w, err)
			return
		}
	}
	if doc != nil {
		h := s.sess.finished(a, oreq, doc)
		s.adopt(h)
		writeJSON(w, http.StatusAccepted, planio.SubmitResponse{ID: h.ID(), State: h.State().String()})
		return
	}
	if s.journal != nil {
		// Idempotent admission: a key already in flight means this
		// submission is a retry (or a concurrent duplicate) of live work —
		// attach to the existing job instead of running it twice.
		s.mu.RLock()
		prior := s.jobs[s.inflight[a.key]]
		s.mu.RUnlock()
		if prior != nil && !prior.State().Terminal() {
			writeJSON(w, http.StatusAccepted,
				planio.SubmitResponse{ID: prior.ID(), State: prior.State().String()})
			return
		}
	}
	h, err := s.sess.enqueue(r.Context(), a, oreq)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if s.journal != nil {
		// Journal before acknowledging: a submission the client saw accepted
		// is guaranteed to be re-enqueued if the process dies.
		var deadlineMS int64
		if !oreq.deadline.IsZero() {
			deadlineMS = oreq.deadline.UnixMilli()
		}
		if err := s.journal.j.AppendSubmit(h.ID(), body, deadlineMS); err != nil {
			// Not durable, so not accepted: drop the job and let the
			// client's retry policy (or the coordinator's re-dispatch)
			// take the submission to a server that can journal it.
			h.Cancel()
			s.writeError(w, stubbyerr.WithKind(stubbyerr.KindUnavailable, "submit", wfName,
				fmt.Errorf("journal append: %w", err)))
			return
		}
	}
	s.adopt(h)
	writeJSON(w, http.StatusAccepted, planio.SubmitResponse{ID: h.ID(), State: h.State().String()})
}

// optimizeRequest is the job a decoded request document asks for, the
// one mapping the submit handler and journal recovery share. A key-first
// document maps to a request without a workflow.
func optimizeRequest(req *planio.Request) OptimizeRequest {
	return OptimizeRequest{Workflow: req.Plan, Planner: req.Planner, Seed: req.Seed, Cluster: req.Cluster}
}

// pruneLocked evicts the oldest finished handles beyond the retention
// bound. Callers hold s.mu.
func (s *Server) pruneLocked() {
	terminal := 0
	for _, id := range s.order {
		if h := s.jobs[id]; h != nil && h.State().Terminal() {
			terminal++
		}
	}
	drop := terminal - s.retain
	if drop <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if h := s.jobs[id]; drop > 0 && h != nil && h.State().Terminal() {
			delete(s.jobs, id)
			drop--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) statusDoc(h *OptimizeHandle) *planio.StatusDoc {
	p := h.Progress()
	doc := &planio.StatusDoc{
		ID:           h.ID(),
		Workflow:     h.WorkflowName(),
		State:        p.State.String(),
		Units:        p.Units,
		Subplans:     p.Subplans,
		Improvements: p.Improvements,
		BestCost:     p.BestCost,
	}
	if p.State == StateFailed || p.State == StateCanceled {
		if _, err := h.result(); err != nil {
			doc.Error = planio.NewErrorDoc(err)
		}
	}
	return doc
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	h, err := s.lookup(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.statusDoc(h))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	h, err := s.lookup(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	h.Cancel()
	writeJSON(w, http.StatusOK, s.statusDoc(h))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	h, err := s.lookup(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if h.raw != nil {
		writeResult(w, h.raw)
		return
	}
	switch h.State() {
	case StateQueued, StateRunning:
		s.writeError(w, stubbyerr.New(stubbyerr.KindConflict, "result", h.WorkflowName(), "",
			"job %s has not finished (state %s)", h.ID(), h.State()))
		return
	}
	res, err := h.result()
	if err != nil {
		s.writeError(w, err)
		return
	}
	data, err := planio.EncodeResult(&planio.Result{
		Plan:           res.Plan,
		EstimatedCost:  res.EstimatedCost,
		DurationMS:     float64(res.Duration) / float64(time.Millisecond),
		WhatIfCalls:    res.WhatIfCalls,
		WhatIfComputed: res.WhatIfComputed,
		FlowCards:      res.FlowCards,
		Fingerprint:    wf.FingerprintWorkflow(res.Plan).String(),
		Robustness:     res.Robustness,
		ReusedSubplans: res.ReusedSubplans,
	})
	if err != nil {
		s.writeError(w, stubbyerr.From("result", h.WorkflowName(), err))
		return
	}
	writeResult(w, data)
}

// writeResult writes an encoded result document as the response body, its
// length declared so the receiver reads it into one buffer of that size.
func writeResult(w http.ResponseWriter, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(doc)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	h, err := s.lookup(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// ?from=N resumes the stream at line N: the NDJSON line index is the
	// event's sequence number in the job's append-only log, so a client
	// that counted its received lines reconnects to exactly the missed
	// suffix. No cursor (or from=0) replays from the beginning.
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 0 {
			s.writeError(w, stubbyerr.New(stubbyerr.KindInvalid, "events", h.WorkflowName(), h.ID(),
				"bad resume cursor %q", v))
			return
		}
		from = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for ev := range h.EventsFrom(r.Context(), from) {
		if err := enc.Encode(eventToDoc(ev)); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleHealth is liveness: the process is up and can answer HTTP. It is
// 200 even while draining — a draining server is alive and should not be
// restarted by a liveness probe. Route traffic with /readyz instead.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeLiveness(w, http.StatusOK, s.draining.Load())
}

// handleReady is readiness: 200 while the server accepts submissions,
// 503 (Retry-After stamped) the moment Drain begins — load balancers stop
// routing new work immediately while in-flight jobs finish.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	code := http.StatusOK
	if draining {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs()))
		code = http.StatusServiceUnavailable
	}
	s.writeLiveness(w, code, draining)
}

// writeLiveness writes the body /healthz and /readyz share.
func (s *Server) writeLiveness(w http.ResponseWriter, code int, draining bool) {
	q := s.sess.jobQueue()
	status := "ok"
	if draining {
		status = "draining"
	}
	writeJSON(w, code, map[string]any{
		"status":     status,
		"queueDepth": q.Depth(),
		"workers":    q.Workers(),
	})
}

// handleStatsz serves the server's counters, section by section (see
// planio.StatszDoc). Every counter read is an atomic snapshot, so polling
// /statsz never contends with the optimizer's hot paths.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	q := s.sess.jobQueue()
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	doc := &planio.StatszDoc{
		Status: status,
		Queue: stats.Queue{
			Workers: q.Workers(),
			Depth:   q.Depth(),
			Queued:  q.Queued(),
			Busy:    q.Busy(),
		},
	}
	if st, ok := s.sess.EstimateCacheStats(); ok {
		doc.EstCache = &st
	}
	if st, ok := s.sess.PlanStoreStats(); ok {
		doc.PlanStore = &st
	}
	if st, ok := s.sess.ReuseCatalogStats(); ok {
		doc.ReuseCatalog = &st
	}
	if st, ok := s.JournalStats(); ok {
		doc.Journal = &st
	}
	if st, ok := s.ClusterStats(); ok {
		doc.Cluster = &st
	}
	writeJSON(w, http.StatusOK, doc)
}

// eventToDoc converts a typed event to its wire form.
func eventToDoc(ev Event) *planio.EventDoc {
	switch e := ev.(type) {
	case UnitStartedEvent:
		return &planio.EventDoc{Type: planio.EventUnitStarted, Workflow: e.Workflow,
			Phase: e.Phase, Unit: e.Unit, Jobs: e.Jobs}
	case SubplanEnumeratedEvent:
		return &planio.EventDoc{Type: planio.EventSubplanEnumerated, Workflow: e.Workflow,
			Unit: e.Unit, Desc: e.Desc, Cost: e.Cost}
	case BestCostImprovedEvent:
		return &planio.EventDoc{Type: planio.EventBestCostImproved, Workflow: e.Workflow,
			Unit: e.Unit, Desc: e.Desc, Cost: e.Cost}
	case JobFinishedEvent:
		return &planio.EventDoc{Type: planio.EventJobFinished, Workflow: e.Workflow,
			Job: e.Job, Start: e.Start, End: e.End}
	case CacheReportEvent:
		return &planio.EventDoc{Type: planio.EventCacheReport, Workflow: e.Workflow,
			Cache: &e.Stats}
	case PlanStoreEvent:
		return &planio.EventDoc{Type: planio.EventStoreReport, Workflow: e.Workflow,
			Hit: e.Hit, Store: &e.Stats}
	case RobustnessEvent:
		return &planio.EventDoc{Type: planio.EventRobustness, Workflow: e.Workflow,
			Robustness: e.Report}
	case ReuseReportEvent:
		return &planio.EventDoc{Type: planio.EventReuseReport, Workflow: e.Workflow,
			Reused: e.Reused, Reuse: &e.Stats}
	case StateChangedEvent:
		return &planio.EventDoc{Type: planio.EventStateChanged, Workflow: e.Workflow,
			JobID: e.JobID, State: e.State.String(), Error: planio.NewErrorDoc(e.Err)}
	default:
		return &planio.EventDoc{Type: fmt.Sprintf("unknown(%T)", ev), Workflow: ev.WorkflowName()}
	}
}

// eventFromDoc converts a wire event back to its typed form; ok is false
// for event types this build does not know (skipped by stream readers).
func eventFromDoc(d *planio.EventDoc) (Event, bool) {
	switch d.Type {
	case planio.EventUnitStarted:
		return UnitStartedEvent{Workflow: d.Workflow, Phase: d.Phase, Unit: d.Unit, Jobs: d.Jobs}, true
	case planio.EventSubplanEnumerated:
		return SubplanEnumeratedEvent{Workflow: d.Workflow, Unit: d.Unit, Desc: d.Desc, Cost: d.Cost}, true
	case planio.EventBestCostImproved:
		return BestCostImprovedEvent{Workflow: d.Workflow, Unit: d.Unit, Desc: d.Desc, Cost: d.Cost}, true
	case planio.EventJobFinished:
		return JobFinishedEvent{Workflow: d.Workflow, Job: d.Job, Start: d.Start, End: d.End}, true
	case planio.EventCacheReport:
		return CacheReportEvent{Workflow: d.Workflow, Stats: deref(d.Cache)}, true
	case planio.EventStoreReport:
		return PlanStoreEvent{Workflow: d.Workflow, Hit: d.Hit,
			Stats: deref(d.Store)}, true
	case planio.EventRobustness:
		return RobustnessEvent{Workflow: d.Workflow, Report: d.Robustness}, true
	case planio.EventReuseReport:
		return ReuseReportEvent{Workflow: d.Workflow, Reused: d.Reused,
			Stats: deref(d.Reuse)}, true
	case planio.EventStateChanged:
		st, err := parseJobState(d.State)
		if err != nil {
			return nil, false
		}
		return StateChangedEvent{Workflow: d.Workflow, JobID: d.JobID, State: st, Err: d.Error.Err()}, true
	default:
		return nil, false
	}
}

// deref is *p, or the zero value for a section the sender left out.
func deref[T any](p *T) (v T) {
	if p != nil {
		v = *p
	}
	return v
}

// parseJobState maps a wire spelling back to a JobState.
func parseJobState(v string) (JobState, error) {
	st, err := service.ParseState(v)
	if err != nil {
		return 0, stubbyerr.WithKind(stubbyerr.KindInvalid, "parse", "", err)
	}
	return st, nil
}
