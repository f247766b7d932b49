package stubby

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/stubby-mr/stubby/internal/planstore"
	"github.com/stubby-mr/stubby/internal/service"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
	"github.com/stubby-mr/stubby/internal/wf"
)

// JobState is the lifecycle state of a submitted optimization:
//
//	StateQueued ──▶ StateRunning ──▶ StateDone
//	     │               ├─────────▶ StateFailed
//	     └───────────────┴─────────▶ StateCanceled
type JobState = service.State

// Job lifecycle states.
const (
	// StateQueued: admitted to the session's queue, waiting for a worker.
	StateQueued = service.Queued
	// StateRunning: a worker is optimizing.
	StateRunning = service.Running
	// StateDone: finished successfully; Wait returns the Result.
	StateDone = service.Done
	// StateFailed: finished with an error; Wait returns it.
	StateFailed = service.Failed
	// StateCanceled: stopped by Cancel before or during optimization.
	StateCanceled = service.Canceled
)

// OptimizeRequest describes one optimization to submit: the annotated
// workflow plus optional per-request overrides of the session's planner,
// seed, and cluster. It is also the unit of the wire protocol — a Client
// sends exactly these fields to a stubbyd server.
type OptimizeRequest struct {
	// Workflow is the annotated plan to optimize (required). Submit never
	// modifies it; treat it as immutable until the job is terminal.
	Workflow *Workflow
	// Planner names the planner to use ("" = the session's planner).
	Planner string
	// Seed overrides the session's search seed when non-zero.
	Seed int64
	// Cluster, when non-nil, optimizes for this cluster instead of the
	// session's (remote submitters describe their cluster this way). The
	// session's estimate cache is still consulted — cache keys include a
	// cluster fingerprint, so entries never leak across clusters.
	Cluster *Cluster

	// resumeID pins the job's ID instead of drawing a fresh one — set only
	// by journal recovery, which must re-enqueue a crashed job under its
	// original identifier so clients polling that ID reconnect to it. The
	// job was accepted once already, so a full queue makes it wait for room
	// where it would shed a new submission.
	resumeID string
	// deadline bounds the job's execution absolutely (zero = none). The
	// server sets it from the client's propagated wire deadline.
	deadline time.Time
}

// Progress is a point-in-time snapshot of a submitted job.
type Progress struct {
	// State is the lifecycle state at snapshot time.
	State JobState
	// Units counts optimization units the search has opened.
	Units int
	// Subplans counts enumerated subplans across all units.
	Subplans int
	// Improvements counts incumbent improvements across all units.
	Improvements int
	// BestCost is the cost of the latest incumbent improvement (0 until
	// the first).
	BestCost float64
}

// OptimizeHandle tracks one submitted optimization. All methods are safe
// for concurrent use, and a handle remains valid after the job finishes —
// State, Progress, Wait, and Events replay terminal information
// indefinitely.
type OptimizeHandle struct {
	id       string
	workflow string
	key      planstore.Key // the admission's: what names the job's outcome
	job      *service.Job
	// raw, set only on a job the server answered from bytes already at hand
	// (a plan-store hit, a worker's relayed answer), is the encoded result
	// document GET …/result writes as is. Immutable once the handle exists.
	raw []byte

	mu           sync.Mutex
	units        int
	subplans     int
	improvements int
	bestCost     float64
}

// ID returns the job's session-unique identifier.
func (h *OptimizeHandle) ID() string { return h.id }

// WorkflowName returns the name of the submitted workflow.
func (h *OptimizeHandle) WorkflowName() string { return h.workflow }

// State returns the job's current lifecycle state.
func (h *OptimizeHandle) State() JobState { return h.job.State() }

// Progress returns a snapshot of the job's state and search counters.
func (h *OptimizeHandle) Progress() Progress {
	h.mu.Lock()
	p := Progress{Units: h.units, Subplans: h.subplans,
		Improvements: h.improvements, BestCost: h.bestCost}
	h.mu.Unlock()
	p.State = h.job.State()
	return p
}

// Cancel requests cancellation: a queued job becomes StateCanceled
// immediately and never runs; a running job's search context is canceled
// and the job becomes StateCanceled when the search unwinds (promptly —
// the optimizer checks cancellation between units and between RRS
// evaluations). Cancel is idempotent and a no-op on terminal jobs.
func (h *OptimizeHandle) Cancel() { h.job.Cancel() }

// Done is closed when the job reaches a terminal state.
func (h *OptimizeHandle) Done() <-chan struct{} { return h.job.Done() }

// Wait blocks until the job is terminal and returns its outcome: the
// Result for StateDone, an ErrKindCanceled *Error for StateCanceled, and
// the job's error for StateFailed. If ctx ends first, Wait returns ctx's
// error (wrapped) while the job keeps running.
func (h *OptimizeHandle) Wait(ctx context.Context) (*Result, error) {
	if err := h.job.Wait(ctx); err != nil {
		return nil, stubbyerr.From("wait", h.workflow, err)
	}
	return h.result()
}

// result converts the terminal job outcome. Callers ensure terminality.
func (h *OptimizeHandle) result() (*Result, error) {
	res, err := h.job.Result()
	if h.job.State() == StateCanceled {
		return nil, stubbyerr.WithKind(stubbyerr.KindCanceled, "optimize", h.workflow,
			fmt.Errorf("job %s canceled: %w", h.id, context.Canceled))
	}
	if err != nil {
		return nil, stubbyerr.From("optimize", h.workflow, err)
	}
	r, ok := res.(*Result)
	if !ok {
		return nil, stubbyerr.New(stubbyerr.KindInternal, "optimize", h.workflow, "",
			"job %s finished without a result", h.id)
	}
	return r, nil
}

// Events returns the job's typed event stream. Every subscription replays
// the full stream from submission — StateChangedEvent(StateQueued) first —
// then follows live events, so subscription timing is irrelevant; the
// channel closes after the terminal StateChangedEvent (always the last
// event) or when ctx ends.
func (h *OptimizeHandle) Events(ctx context.Context) <-chan Event {
	return h.EventsFrom(ctx, 0)
}

// EventsFrom is Events with a resume cursor: the replay starts at sequence
// number `from` — the index of an event in the job's append-only log, which
// is also the NDJSON line index the server's event stream emits — so a
// reconnecting consumer that counted the events it already received gets
// exactly the missed suffix, no gaps and no duplicates.
func (h *OptimizeHandle) EventsFrom(ctx context.Context, from int) <-chan Event {
	raw := h.job.EventsFrom(ctx, from)
	ch := make(chan Event)
	go func() {
		defer close(ch)
		for ev := range raw {
			var e Event
			switch v := ev.(type) {
			case service.StateChange:
				e = StateChangedEvent{Workflow: h.workflow, JobID: h.id, State: v.State, Err: v.Err}
			case Event:
				e = v
			default:
				continue
			}
			select {
			case ch <- e:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

// record is the handle's half of a queued job's event sink: it counts
// search progress for Progress and appends the event to the job's log, which
// is what Events replays.
func (h *OptimizeHandle) record(ev Event) {
	h.mu.Lock()
	switch e := ev.(type) {
	case UnitStartedEvent:
		h.units++
	case SubplanEnumeratedEvent:
		h.subplans++
	case BestCostImprovedEvent:
		h.improvements++
		h.bestCost = e.Cost
	}
	h.mu.Unlock()
	h.job.Publish(ev)
}

// admission is a submission resolved against the session that serves it:
// the session the job runs on (the serving one, or one derived for the
// request's cluster) and that session's plan-store key for the job — the
// plan's fingerprint, the cluster's, and the planner and seed with the
// serving session's defaults filled in. Equal keys mean byte-identical
// plans, so the key is also the job's identity in a journaled server's
// in-flight index.
type admission struct {
	target   *Session
	workflow string // the submitted workflow's name
	key      planstore.Key
}

// admit resolves req — planner, seed, cluster — for the workflow named
// wfName and fingerprinted fp, rejecting what no server could run: a closed
// session, an invalid cluster, an unknown planner. It never reads
// req.Workflow, so a key-first submission resolves exactly as the full
// document would.
func (s *Session) admit(req OptimizeRequest, wfName string, fp wf.Fingerprint) (admission, error) {
	const op = "submit"
	if s.closed.Load() {
		return admission{}, stubbyerr.New(stubbyerr.KindUnavailable, op, wfName, "",
			"session is closed")
	}
	target, err := s.deriveFor(req)
	if err != nil {
		return admission{}, stubbyerr.WithKind(stubbyerr.KindInvalid, op, wfName, err)
	}
	name := req.Planner
	if name == "" {
		name = s.plannerName
	}
	if name == "" {
		name = "stubby"
	}
	if _, ok := s.registry.Lookup(name); !ok {
		return admission{}, stubbyerr.New(stubbyerr.KindUnknownPlanner, op, wfName, "",
			"unknown planner %q", name)
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.seed
	}
	return admission{target: target, workflow: wfName, key: target.planKey(fp, name, seed)}, nil
}

// Submit admits the request to the session's bounded queue and returns a
// handle immediately. The optimization runs asynchronously on the
// session's worker pool (WithParallelism workers over a WithQueueDepth
// queue); when the queue is full the request is shed with an
// ErrKindOverloaded *Error rather than queueing unbounded work, and a
// closed session rejects with ErrKindUnavailable. ctx gates admission
// only — the job's lifetime is controlled through the handle.
func (s *Session) Submit(ctx context.Context, req OptimizeRequest) (*OptimizeHandle, error) {
	const op = "submit"
	if req.Workflow == nil {
		return nil, stubbyerr.New(stubbyerr.KindInvalid, op, "", "", "nil workflow")
	}
	if err := ctx.Err(); err != nil {
		return nil, stubbyerr.From(op, req.Workflow.Name, err)
	}
	// Fingerprinted whether or not a store is attached: a journaled server
	// indexes the jobs it recovers through Submit by this key.
	a, err := s.admit(req, req.Workflow.Name, wf.FingerprintWorkflow(req.Workflow))
	if err != nil {
		return nil, err
	}
	// A plan-store hit skips the queue entirely: the stored plan is
	// decodable right now, so the job finishes on the submitting goroutine
	// and never occupies a worker. Anything else (miss, store error,
	// undecodable document, a store storeFor withholds) defers to a worker,
	// whose GetOrCompute counts the miss.
	if ps := a.target.storeFor(req.Workflow); ps != nil {
		if doc, ok, err := ps.Peek(a.key); err == nil && ok {
			if res, err := decodeStoredResult(doc, req.Workflow); err == nil {
				return s.finished(a, req, res), nil
			}
		}
	}
	return s.enqueue(ctx, a, req)
}

// newHandle builds the handle of a job under a fresh ID (or, for a job
// recovered from the journal, its original one).
func (s *Session) newHandle(a admission, req OptimizeRequest) *OptimizeHandle {
	id := req.resumeID
	if id == "" {
		id = fmt.Sprintf("job-%s%d", s.jobEpoch, s.jobSeq.Add(1))
	}
	return &OptimizeHandle{id: id, workflow: a.workflow, key: a.key}
}

// finished returns the handle of a job that is born terminal because its
// answer was at hand: res is a decoded *Result (Submit's own store hit) or
// the encoded result document as the store or a worker holds it (the
// server's, which serves those bytes as they are). Subscribers still see the
// full Queued→Running→Done lifecycle, with the store's report when this
// session's store gave the answer.
func (s *Session) finished(a admission, req OptimizeRequest, res any) *OptimizeHandle {
	h := s.newHandle(a, req)
	h.raw, _ = res.([]byte)
	h.job = service.NewJob(h.id, nil)
	if a.target.planStore != nil {
		h.job.Publish(PlanStoreEvent{Workflow: a.workflow, Hit: true,
			Stats: a.target.planStore.Stats()})
	}
	h.job.Finish(res)
	return h
}

// enqueue queues the admitted optimization on the session's worker pool.
func (s *Session) enqueue(ctx context.Context, a admission, req OptimizeRequest) (*OptimizeHandle, error) {
	target, wfName := a.target, a.workflow
	h := s.newHandle(a, req)
	// The job's sink: the handle first, then the serving session's sink, so
	// whatever watches the session sees Submit traffic as it sees Optimize's.
	sink := func(ev Event) {
		h.record(ev)
		if s.events != nil {
			s.events(ev)
		}
	}
	h.job = service.NewJobWithDeadline(h.id, req.deadline, func(ctx context.Context) (any, error) {
		if target.dispatch != nil {
			// Coordinator path: run the job on a cluster worker. Only the
			// no-live-workers condition falls back to the local optimizer;
			// any other dispatch failure is the job's real outcome (the
			// coordinator already re-dispatched transient failures).
			res, err := a.dispatchOptimize(ctx, req.Workflow)
			if err == nil {
				target.report(wfName, res, sink)
				return res, nil
			}
			if !errors.Is(err, ErrNoWorkers) {
				return nil, stubbyerr.From("optimize", wfName, err)
			}
		}
		res, err := target.optimizeAndReport(ctx, req.Workflow, a.key, sink)
		if err != nil {
			return nil, err
		}
		return res, nil
	})
	var err error
	if q := s.jobQueue(); req.resumeID != "" {
		err = q.SubmitWait(ctx, h.job)
	} else {
		err = q.Submit(h.job)
	}
	if err != nil {
		var se *Error
		if errors.As(err, &se) {
			// The queue doesn't know the workflow; stamp it for the caller.
			e := *se
			e.Workflow = wfName
			return nil, &e
		}
		return nil, stubbyerr.From("submit", wfName, err)
	}
	return h, nil
}

// jobQueue lazily creates the session's admission queue: WithParallelism
// workers over a WithQueueDepth-bounded channel.
func (s *Session) jobQueue() *service.Queue {
	s.queueOnce.Do(func() {
		depth := s.queueDepth
		if depth <= 0 {
			depth = DefaultQueueDepth
		}
		s.queue = service.NewQueue(s.parallelism, depth)
	})
	return s.queue
}

// deriveFor resolves the session a request's job runs against: s itself
// when the request names no cluster, otherwise a derived session
// optimizing for the request's cluster. A derived session shares the
// planner registry and the estimate cache (whose keys include a cluster
// fingerprint, so sharing is safe) but has no queue of its own; jobs still
// run on s's pool.
func (s *Session) deriveFor(req OptimizeRequest) (*Session, error) {
	if req.Cluster == nil {
		return s, nil
	}
	if err := req.Cluster.Validate(); err != nil {
		return nil, err
	}
	return &Session{
		cluster:      req.Cluster,
		seed:         s.seed,
		plannerName:  s.plannerName,
		parallelism:  s.parallelism,
		events:       s.events,
		fraction:     s.fraction,
		baseOpts:     s.baseOpts,
		search:       s.search,
		registry:     s.registry,
		estCache:     s.estCache,
		planStore:    s.planStore,
		reuseCatalog: s.reuseCatalog,
		robustness:   s.robustness,
		dispatch:     s.dispatch,
	}, nil
}

// Close drains the session's Submit queue: new submissions are rejected
// with ErrKindUnavailable, already-admitted jobs run to completion (cancel
// their handles first for a fast drain), and Close returns when the
// workers are idle or ctx ends (returning ctx's error while the drain
// continues in the background). Sessions that never submitted close
// immediately. Optimize/Run/Profile/Estimate remain usable after Close.
func (s *Session) Close(ctx context.Context) error {
	s.closed.Store(true)
	// Creating the queue just to drain it is harmless (workers exit
	// immediately) and keeps Close race-free against concurrent Submits.
	if err := s.jobQueue().Drain(ctx); err != nil {
		return stubbyerr.From("close", "", err)
	}
	return nil
}
