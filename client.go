package stubby

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"github.com/stubby-mr/stubby/internal/jobclient"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
	"github.com/stubby-mr/stubby/internal/wf"
)

// Client speaks the stubbyd wire protocol: it submits OptimizeRequests as
// versioned JSON documents, polls status, streams typed events, cancels,
// and retrieves results. Errors reconstruct the server's *Error taxonomy,
// so errors.Is(err, ErrKindOverloaded) works identically to in-process
// Submit. A Client is safe for concurrent use.
//
// Plans travel as black boxes (stage names, no function bodies): the
// Result.Plan a Client returns carries every annotation and can be costed,
// compared, and re-optimized, but not executed — exactly the paper's
// Figure 2 deployment, where the optimizer service never sees user code.
//
// Client is the typed veneer; the wire itself (requests, retries, the
// event pump) lives in internal/jobclient, which the cluster coordinator
// shares.
type Client struct {
	t *jobclient.Transport
}

// ClientOption configures a Client under construction.
type ClientOption func(*Client)

// WithHTTPClient replaces the underlying *http.Client (default:
// http.DefaultClient). Use it to set timeouts, transports, or tracing.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) {
		if hc != nil {
			c.t.SetHTTPClient(hc)
		}
	}
}

// NewClient builds a client for the stubbyd server at baseURL (e.g.
// "http://localhost:8080").
func NewClient(baseURL string, opts ...ClientOption) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindInvalid, "client", "", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, stubbyerr.New(stubbyerr.KindInvalid, "client", "", "",
			"base URL %q must be http or https", baseURL)
	}
	c := &Client{t: jobclient.New(strings.TrimRight(u.String(), "/"))}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// ServiceStats is a stubbyd server's /statsz snapshot: status, queue
// occupancy, and one pointer per optional section of counters, nil when the
// server runs without that subsystem (planio.StatszDoc lists the sections).
type ServiceStats struct {
	// Status is "ok", or "draining" after shutdown began.
	Status string
	// Workers/QueueDepth describe the worker pool and admission bound;
	// Queued/Busy are point-in-time occupancy.
	Workers    int
	QueueDepth int
	Queued     int
	Busy       int
	// EstimateCache carries the estimate cache's counters, when attached.
	EstimateCache *EstimateCacheStats
	// PlanStore carries the plan store's counters, when attached.
	PlanStore *PlanStoreStats
	// ReuseCatalog carries the sub-plan reuse catalog's counters, when
	// attached.
	ReuseCatalog *ReuseCatalogStats
	// Journal carries the durable job journal's counters, when attached.
	Journal *JournalStats
	// Cluster carries the coordinator's cluster counters, when the server
	// runs with WithCoordinator.
	Cluster *ClusterStats
}

// Stats fetches the server's /statsz counters.
func (c *Client) Stats(ctx context.Context) (*ServiceStats, error) {
	var doc planio.StatszDoc
	if err := c.t.JSON(ctx, "stats", http.MethodGet, "/statsz", nil, &doc); err != nil {
		return nil, err
	}
	return &ServiceStats{
		Status:        doc.Status,
		Workers:       doc.Queue.Workers,
		QueueDepth:    doc.Queue.Depth,
		Queued:        doc.Queue.Queued,
		Busy:          doc.Queue.Busy,
		EstimateCache: doc.EstCache,
		PlanStore:     doc.PlanStore,
		ReuseCatalog:  doc.ReuseCatalog,
		Journal:       doc.Journal,
		Cluster:       doc.Cluster,
	}, nil
}

// Submit posts the request and returns a remote job bound to the
// server-assigned ID. It names the answer before it ships the question: the
// first document carries the plan's fingerprint in place of the plan (a few
// hundred bytes), and a server that already holds the result for that key
// answers with a finished job. One that does not answers "plan required"
// (ErrKindNotFound) — and one that predates key-first documents rejects the
// unknown member (ErrKindInvalid) — and Submit then sends the full
// document. Overload and drain rejections surface as ErrKindOverloaded /
// ErrKindUnavailable.
func (c *Client) Submit(ctx context.Context, req OptimizeRequest) (*RemoteJob, error) {
	if req.Workflow == nil {
		return nil, stubbyerr.New(stubbyerr.KindInvalid, "submit", "", "", "nil workflow")
	}
	doc := planio.Request{
		Planner:     req.Planner,
		Seed:        req.Seed,
		Cluster:     req.Cluster,
		Fingerprint: wf.FingerprintWorkflow(req.Workflow),
		Workflow:    req.Workflow.Name,
	}
	id, err := c.submitDoc(ctx, &doc)
	if errors.Is(err, stubbyerr.KindNotFound) || errors.Is(err, stubbyerr.KindInvalid) {
		doc.Plan = req.Workflow
		id, err = c.submitDoc(ctx, &doc)
	}
	if err != nil {
		return nil, err
	}
	return &RemoteJob{c: c, id: id, workflow: req.Workflow.Name}, nil
}

func (c *Client) submitDoc(ctx context.Context, doc *planio.Request) (string, error) {
	body, err := planio.EncodeRequest(doc)
	if err != nil {
		return "", stubbyerr.WithKind(stubbyerr.KindInvalid, "submit", doc.Workflow, err)
	}
	return c.t.Submit(ctx, body)
}

// Job binds a RemoteJob to an already-known ID (e.g. persisted from an
// earlier Submit). The binding is not verified until the first call.
func (c *Client) Job(id string) *RemoteJob { return &RemoteJob{c: c, id: id} }

// JobStatus is a remote job's status snapshot.
type JobStatus struct {
	ID       string
	Workflow string
	Progress Progress
	// Err is the structured failure/cancellation cause for terminal
	// non-Done states, nil otherwise.
	Err error
}

// State returns the snapshot's lifecycle state.
func (s *JobStatus) State() JobState { return s.Progress.State }

// RemoteJob is the client-side handle to a job on a stubbyd server: the
// over-the-wire counterpart of OptimizeHandle. Methods take a context
// because every one is an HTTP call. A RemoteJob is safe for concurrent
// use — all fields are set at construction and never mutated (a job
// rebound with Client.Job carries no workflow name; its errors omit it).
type RemoteJob struct {
	c        *Client
	id       string
	workflow string
}

// ID returns the server-assigned job ID.
func (j *RemoteJob) ID() string { return j.id }

// Status fetches the job's state and progress snapshot.
func (j *RemoteJob) Status(ctx context.Context) (*JobStatus, error) {
	doc, err := j.c.t.Status(ctx, j.id)
	if err != nil {
		return nil, err
	}
	return statusFromDoc(doc)
}

func statusFromDoc(doc *planio.StatusDoc) (*JobStatus, error) {
	st, err := parseJobState(doc.State)
	if err != nil {
		return nil, err
	}
	return &JobStatus{
		ID:       doc.ID,
		Workflow: doc.Workflow,
		Progress: Progress{State: st, Units: doc.Units, Subplans: doc.Subplans,
			Improvements: doc.Improvements, BestCost: doc.BestCost},
		Err: doc.Error.Err(),
	}, nil
}

// Cancel requests cancellation server-side (see OptimizeHandle.Cancel for
// the semantics) and returns the status observed after the request.
// Cancellation is idempotent, so retrying it is safe.
func (j *RemoteJob) Cancel(ctx context.Context) (*JobStatus, error) {
	doc, err := j.c.t.Cancel(ctx, j.id)
	if err != nil {
		return nil, err
	}
	return statusFromDoc(doc)
}

// Events streams the job's typed events: the server replays the full
// stream from submission, then follows live; the channel closes after the
// terminal StateChangedEvent or when ctx ends. Unknown event types from a
// newer server are skipped. Under a retry policy the stream is resumable:
// a dropped connection reconnects with the server's ?from= cursor (the
// per-job event sequence number — the count of complete NDJSON lines
// received so far) and the replayed suffix is exactly the missed events,
// with no duplicates and no gaps. Without one, any drop simply ends the
// channel.
func (j *RemoteJob) Events(ctx context.Context) (<-chan Event, error) {
	stream, err := j.c.t.Follow(ctx, j.id)
	if err != nil {
		return nil, err
	}
	ch := make(chan Event)
	go func() {
		defer close(ch)
		stream.Pump(ctx, func(doc *planio.EventDoc) {
			if ev, ok := eventFromDoc(doc); ok {
				select {
				case ch <- ev:
				case <-ctx.Done():
				}
			}
		})
	}()
	return ch, nil
}

// resultFromDoc lifts a decoded result document into the public Result.
func resultFromDoc(doc *planio.Result) *Result {
	return &Result{
		Plan:           doc.Plan,
		EstimatedCost:  doc.EstimatedCost,
		Duration:       time.Duration(doc.DurationMS * float64(time.Millisecond)),
		WhatIfCalls:    doc.WhatIfCalls,
		WhatIfComputed: doc.WhatIfComputed,
		FlowCards:      doc.FlowCards,
		Robustness:     robustnessFromDoc(doc.Robustness),
		ReusedSubplans: doc.ReusedSubplans,
	}
}

// Result fetches the finished job's result document and decodes it,
// verifying the plan fingerprint the server stamped. An unfinished job
// yields ErrKindConflict; a failed or canceled one yields its structured
// error.
func (j *RemoteJob) Result(ctx context.Context) (*Result, error) {
	body, err := j.c.t.Result(ctx, j.id)
	if err != nil {
		return nil, err
	}
	doc, err := planio.DecodeResult(body)
	if err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindInternal, "result", j.workflow, err)
	}
	return resultFromDoc(doc), nil
}

// Wait blocks until the job is terminal and returns its outcome, following
// the event stream (one long poll, no timer loop). Like
// OptimizeHandle.Wait: the Result for StateDone, the structured error for
// StateFailed/StateCanceled, ctx's error if it ends first. Under a retry
// policy Wait survives connection drops and even a server crash/restart:
// the event stream resumes at its cursor, and if the stream cannot be
// resumed Wait degrades to polling Status until the job lands.
func (j *RemoteJob) Wait(ctx context.Context) (*Result, error) {
	doc, err := j.c.t.Wait(ctx, j.id)
	if err != nil {
		return nil, stubbyerr.From("wait", j.workflow, err)
	}
	st, err := statusFromDoc(doc)
	if err != nil {
		return nil, err
	}
	switch st.State() {
	case StateDone:
		return j.Result(ctx)
	case StateCanceled:
		return nil, stubbyerr.WithKind(stubbyerr.KindCanceled, "optimize", st.Workflow,
			fmt.Errorf("job %s canceled: %w", j.id, context.Canceled))
	default: // StateFailed
		if st.Err != nil {
			return nil, st.Err
		}
		return nil, stubbyerr.New(stubbyerr.KindInternal, "optimize", st.Workflow, "",
			"job %s failed", j.id)
	}
}
