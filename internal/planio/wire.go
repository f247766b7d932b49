package planio

// wire.go defines the versioned wire schema of the stubby job service on
// top of the plan documents: optimize requests and results (which embed a
// plan document), progress events, job status, and the structured error
// envelope. The public stubby.Client and the stubbyd server both speak
// exactly these documents, and every encoder here is deterministic so wire
// bytes can be golden-tested.
//
// Requests and results are written compact — they travel the wire, sit in
// the journal and are the plan store's records, and five sixths of an
// indented document is indentation — while Encode, the plan file people
// read, stays indented. The decoders take either, so documents written
// indented by earlier builds (old clients, existing stores and journals)
// still read. json.Indent of a compact document reproduces the indented
// bytes exactly, which is how the wire goldens stay reviewable.
//
// A request names its plan one of two ways: by value (`plan`, the full
// annotated document) or by key (`planFingerprint` + `workflow`, a few
// hundred bytes). The key-first form asks "do you already hold the answer
// for this plan?" — a server that does not answers KindNotFound and the
// submitter sends the full document.

import (
	"encoding/json"
	"errors"
	"fmt"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/stats"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
	"github.com/stubby-mr/stubby/internal/wf"
)

// Wire format identifiers. Like the plan documents, requests and results
// carry an explicit format name and version so future revisions migrate
// explicitly instead of misreading old documents.
const (
	RequestFormatName    = "stubby-optimize-request"
	RequestFormatVersion = 1
	ResultFormatName     = "stubby-optimize-result"
	ResultFormatVersion  = 1
)

// Request is one optimize submission: the annotated plan plus the planner
// selection and options the submitter wants applied. Planner, Seed, and
// Cluster are optional — zero values defer to the serving session.
type Request struct {
	// Planner names the registered planner to use ("" = server default).
	Planner string
	// Seed overrides the serving session's search seed when non-zero.
	Seed int64
	// Cluster describes the cluster to optimize for. Nil uses the serving
	// session's cluster.
	Cluster *mrsim.Cluster
	// Plan is the annotated workflow to optimize. Nil makes the request
	// key-first: Fingerprint and Workflow name the plan instead.
	Plan *wf.Workflow
	// Fingerprint is Plan's canonical wf.Fingerprint, and Workflow its name,
	// in a key-first request; both are ignored when Plan is set.
	Fingerprint wf.Fingerprint
	Workflow    string
}

// Result is one optimize outcome: the chosen plan with its estimated cost
// and What-if activity counters.
type Result struct {
	// Plan is the optimized workflow.
	Plan *wf.Workflow
	// EstimatedCost is the What-if estimate of the final plan.
	EstimatedCost float64
	// DurationMS is the server-side optimization wall time.
	DurationMS float64
	// WhatIfCalls/WhatIfComputed/FlowCards mirror optimizer.Result.
	WhatIfCalls    uint64
	WhatIfComputed uint64
	FlowCards      uint64
	// Fingerprint is the canonical wf.Fingerprint of Plan, letting the
	// receiver verify the document decoded to exactly the plan the sender
	// optimized.
	Fingerprint string
	// Robustness carries the chosen plan's Monte-Carlo makespan distribution
	// under the serving session's fault model. Nil when the server plans
	// without a fault model (the common case).
	Robustness *RobustnessDoc
	// ReusedSubplans counts rooted sub-DAGs the serving session's reuse
	// catalog replaced with scans of stored results (zero without a
	// catalog; the field is omitted from the wire bytes then, keeping old
	// documents byte-identical).
	ReusedSubplans int
}

// RobustnessDoc is the wire form of a robustness report: summary statistics
// of the plan's makespan distribution across perturbation seeds.
type RobustnessDoc struct {
	Samples   int     `json:"samples"`
	Mean      float64 `json:"mean"`
	P50       float64 `json:"p50"`
	P95       float64 `json:"p95"`
	P99       float64 `json:"p99"`
	Min       float64 `json:"min"`
	Max       float64 `json:"max"`
	FailedOut int     `json:"failedOut,omitempty"`
}

// clusterDoc mirrors mrsim.Cluster field by field.
type clusterDoc struct {
	Nodes               int     `json:"nodes"`
	MapSlotsPerNode     int     `json:"mapSlotsPerNode"`
	ReduceSlotsPerNode  int     `json:"reduceSlotsPerNode"`
	DiskMBps            float64 `json:"diskMBps"`
	NetMBps             float64 `json:"netMBps"`
	TaskSetupSec        float64 `json:"taskSetupSec"`
	SortCPUPerRecord    float64 `json:"sortCPUPerRecord"`
	CompressRatio       float64 `json:"compressRatio"`
	CompressCPUSecPerMB float64 `json:"compressCPUSecPerMB"`
	VirtualScale        float64 `json:"virtualScale"`
}

func encodeCluster(c *mrsim.Cluster) *clusterDoc {
	if c == nil {
		return nil
	}
	return &clusterDoc{
		Nodes:               c.Nodes,
		MapSlotsPerNode:     c.MapSlotsPerNode,
		ReduceSlotsPerNode:  c.ReduceSlotsPerNode,
		DiskMBps:            c.DiskMBps,
		NetMBps:             c.NetMBps,
		TaskSetupSec:        c.TaskSetupSec,
		SortCPUPerRecord:    c.SortCPUPerRecord,
		CompressRatio:       c.CompressRatio,
		CompressCPUSecPerMB: c.CompressCPUSecPerMB,
		VirtualScale:        c.VirtualScale,
	}
}

func decodeCluster(d *clusterDoc) *mrsim.Cluster {
	if d == nil {
		return nil
	}
	return &mrsim.Cluster{
		Nodes:               d.Nodes,
		MapSlotsPerNode:     d.MapSlotsPerNode,
		ReduceSlotsPerNode:  d.ReduceSlotsPerNode,
		DiskMBps:            d.DiskMBps,
		NetMBps:             d.NetMBps,
		TaskSetupSec:        d.TaskSetupSec,
		SortCPUPerRecord:    d.SortCPUPerRecord,
		CompressRatio:       d.CompressRatio,
		CompressCPUSecPerMB: d.CompressCPUSecPerMB,
		VirtualScale:        d.VirtualScale,
	}
}

// envelope is the header every request and result document opens with.
type envelope struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

type requestDoc struct {
	envelope
	Planner string `json:"planner,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// DisableIncremental is decode-only: version-1 clients and journal
	// records written before the estimation-mode knob was retired may
	// carry it, and the decoder rejects unknown members. It is accepted,
	// ignored, and never emitted.
	DisableIncremental bool        `json:"disableIncremental,omitempty"`
	Cluster            *clusterDoc `json:"cluster,omitempty"`
	// Exactly one of Plan and PlanFingerprint (with Workflow) is present.
	PlanFingerprint string    `json:"planFingerprint,omitempty"`
	Workflow        string    `json:"workflow,omitempty"`
	Plan            *document `json:"plan,omitempty"`
}

type resultDoc struct {
	envelope
	EstimatedCost  float64        `json:"estimatedCost"`
	DurationMS     float64        `json:"durationMS"`
	WhatIfCalls    uint64         `json:"whatIfCalls"`
	WhatIfComputed uint64         `json:"whatIfComputed"`
	FlowCards      uint64         `json:"flowCards"`
	Fingerprint    string         `json:"fingerprint,omitempty"`
	Robustness     *RobustnessDoc `json:"robustness,omitempty"`
	ReusedSubplans int            `json:"reusedSubplans,omitempty"`
	Plan           *document      `json:"plan"`
}

// EncodeRequest serializes the request to deterministic compact JSON: the
// full document when r.Plan is set, the key-first one otherwise.
func EncodeRequest(r *Request) ([]byte, error) {
	if r == nil {
		return nil, errors.New("planio: request without a plan")
	}
	doc := &requestDoc{
		envelope: envelope{RequestFormatName, RequestFormatVersion},
		Planner:  r.Planner,
		Seed:     r.Seed,
		Cluster:  encodeCluster(r.Cluster),
	}
	if r.Plan != nil {
		plan, err := encodeDoc(r.Plan)
		if err != nil {
			return nil, err
		}
		doc.Plan = plan
	} else {
		doc.PlanFingerprint, doc.Workflow = r.Fingerprint.String(), r.Workflow
	}
	return json.Marshal(doc)
}

// decodeWire strictly parses a request or result document into doc and
// checks the envelope doc embeds.
func decodeWire(data []byte, kind string, doc any, env *envelope, format string, version int) error {
	if err := decodeStrict(data, kind, doc); err != nil {
		return err
	}
	if env.Format != format {
		return fmt.Errorf("planio: not a %s document (format %q)", format, env.Format)
	}
	if env.Version != version {
		return fmt.Errorf("planio: unsupported %s version %d (want %d)", kind, env.Version, version)
	}
	return nil
}

// DecodeRequest parses an optimize-request document. The embedded plan is
// decoded structure-only (annotations intact, inert stage functions) — the
// natural mode for an optimizer service, which costs and rewrites plans but
// never executes them. A key-first document comes back with a nil Plan and
// its Fingerprint parsed; one that names its plan both ways, or neither, is
// rejected.
func DecodeRequest(data []byte) (*Request, error) {
	var doc requestDoc
	if err := decodeWire(data, "request", &doc, &doc.envelope, RequestFormatName, RequestFormatVersion); err != nil {
		return nil, err
	}
	req := &Request{
		Planner:  doc.Planner,
		Seed:     doc.Seed,
		Cluster:  decodeCluster(doc.Cluster),
		Workflow: doc.Workflow,
	}
	var err error
	switch {
	case doc.Plan != nil && doc.PlanFingerprint != "":
		return nil, errors.New("planio: request with both a plan and a plan fingerprint")
	case doc.Plan != nil:
		req.Plan, err = decodeDocument(doc.Plan, NewRegistry(), true)
	case doc.PlanFingerprint != "":
		req.Fingerprint, err = wf.ParseFingerprint(doc.PlanFingerprint)
	default:
		return nil, errors.New("planio: request without a plan")
	}
	if err != nil {
		return nil, err
	}
	return req, nil
}

// EncodeResult serializes the result to deterministic compact JSON.
func EncodeResult(r *Result) ([]byte, error) {
	if r == nil || r.Plan == nil {
		return nil, errors.New("planio: result without a plan")
	}
	plan, err := encodeDoc(r.Plan)
	if err != nil {
		return nil, err
	}
	doc := &resultDoc{
		envelope:       envelope{ResultFormatName, ResultFormatVersion},
		EstimatedCost:  r.EstimatedCost,
		DurationMS:     r.DurationMS,
		WhatIfCalls:    r.WhatIfCalls,
		WhatIfComputed: r.WhatIfComputed,
		FlowCards:      r.FlowCards,
		Fingerprint:    r.Fingerprint,
		Robustness:     r.Robustness,
		ReusedSubplans: r.ReusedSubplans,
		Plan:           plan,
	}
	return json.Marshal(doc)
}

// DecodeResult parses an optimize-result document (plan structure-only)
// and, when the document carries a fingerprint, verifies the decoded plan
// reproduces it — a free end-to-end integrity check on every wire result.
func DecodeResult(data []byte) (*Result, error) {
	return decodeResult(data, NewRegistry(), true)
}

// DecodeResultBound parses an optimize-result document like DecodeResult
// but binds the plan's stage functions through reg, yielding an executable
// plan. This is the in-process plan-store hit path: the submitter holds the
// original workflow (and therefore its function library), so a stored plan
// can come back runnable rather than structure-only. It returns a
// *MissingError when reg lacks a stage the stored plan references.
func DecodeResultBound(data []byte, reg *Registry) (*Result, error) {
	if reg == nil {
		reg = NewRegistry()
	}
	return decodeResult(data, reg, false)
}

func decodeResult(data []byte, reg *Registry, structureOnly bool) (*Result, error) {
	var doc resultDoc
	if err := decodeWire(data, "result", &doc, &doc.envelope, ResultFormatName, ResultFormatVersion); err != nil {
		return nil, err
	}
	if doc.Plan == nil {
		return nil, errors.New("planio: result without a plan")
	}
	plan, err := decodeDocument(doc.Plan, reg, structureOnly)
	if err != nil {
		return nil, err
	}
	if doc.Fingerprint != "" {
		if got := wf.FingerprintWorkflow(plan).String(); got != doc.Fingerprint {
			return nil, fmt.Errorf("planio: result plan fingerprint %s does not match document fingerprint %s",
				got, doc.Fingerprint)
		}
	}
	return &Result{
		Plan:           plan,
		EstimatedCost:  doc.EstimatedCost,
		DurationMS:     doc.DurationMS,
		WhatIfCalls:    doc.WhatIfCalls,
		WhatIfComputed: doc.WhatIfComputed,
		FlowCards:      doc.FlowCards,
		Fingerprint:    doc.Fingerprint,
		Robustness:     doc.Robustness,
		ReusedSubplans: doc.ReusedSubplans,
	}, nil
}

// ErrorDoc is the wire form of the *stubbyerr.Error taxonomy. A client
// reconstructing it yields an error for which errors.Is(err, Kind) and
// errors.As(*stubbyerr.Error) behave exactly as in-process.
type ErrorDoc struct {
	Kind     string `json:"kind"`
	Op       string `json:"op,omitempty"`
	Workflow string `json:"workflow,omitempty"`
	Job      string `json:"job,omitempty"`
	Message  string `json:"message,omitempty"`
}

// NewErrorDoc flattens any error into its wire form, preserving taxonomy
// fields when err carries a *stubbyerr.Error.
func NewErrorDoc(err error) *ErrorDoc {
	if err == nil {
		return nil
	}
	var se *stubbyerr.Error
	if errors.As(err, &se) {
		msg := se.Msg
		if se.Err != nil {
			msg = se.Err.Error()
		}
		return &ErrorDoc{
			Kind:     se.Kind.String(),
			Op:       se.Op,
			Workflow: se.Workflow,
			Job:      se.Job,
			Message:  msg,
		}
	}
	return &ErrorDoc{Kind: stubbyerr.Classify(err).String(), Message: err.Error()}
}

// Err reconstructs the structured error.
func (d *ErrorDoc) Err() error {
	if d == nil {
		return nil
	}
	return &stubbyerr.Error{
		Kind:     stubbyerr.ParseKind(d.Kind),
		Op:       d.Op,
		Workflow: d.Workflow,
		Job:      d.Job,
		Msg:      d.Message,
	}
}

// ErrorEnvelope wraps an ErrorDoc in HTTP error response bodies.
type ErrorEnvelope struct {
	Error *ErrorDoc `json:"error"`
}

// Progress event type tags (EventDoc.Type).
const (
	EventUnitStarted       = "unitStarted"
	EventSubplanEnumerated = "subplanEnumerated"
	EventBestCostImproved  = "bestCostImproved"
	EventJobFinished       = "jobFinished"
	EventCacheReport       = "cacheReport"
	EventStateChanged      = "stateChanged"
	EventStoreReport       = "storeReport"
	EventRobustness        = "robustness"
	EventReuseReport       = "reuseReport"
)

// EventDoc is the wire form of one progress event: a closed set of type
// tags over a flat field union (NDJSON-friendly — one compact object per
// stream line). Unknown types are skipped by clients, so the stream can
// grow new event kinds without breaking old readers.
type EventDoc struct {
	Type       string         `json:"type"`
	Workflow   string         `json:"workflow,omitempty"`
	JobID      string         `json:"jobId,omitempty"`
	Phase      string         `json:"phase,omitempty"`
	Unit       int            `json:"unit,omitempty"`
	Jobs       []string       `json:"jobs,omitempty"`
	Desc       string         `json:"desc,omitempty"`
	Cost       float64        `json:"cost,omitempty"`
	Job        string         `json:"job,omitempty"`
	Start      float64        `json:"start,omitempty"`
	End        float64        `json:"end,omitempty"`
	State      string         `json:"state,omitempty"`
	Error      *ErrorDoc      `json:"error,omitempty"`
	Cache      *stats.Cache   `json:"cache,omitempty"`
	Hit        bool           `json:"hit,omitempty"`
	Store      *stats.Store   `json:"store,omitempty"`
	Robustness *RobustnessDoc `json:"robustness,omitempty"`
	Reused     int            `json:"reused,omitempty"`
	Reuse      *stats.Reuse   `json:"reuse,omitempty"`
}

// StatusDoc is the wire form of a job's status: lifecycle state, the
// progress snapshot, and — for failed or canceled jobs — the structured
// error.
type StatusDoc struct {
	ID           string    `json:"id"`
	Workflow     string    `json:"workflow,omitempty"`
	State        string    `json:"state"`
	Units        int       `json:"units,omitempty"`
	Subplans     int       `json:"subplans,omitempty"`
	Improvements int       `json:"improvements,omitempty"`
	BestCost     float64   `json:"bestCost,omitempty"`
	Error        *ErrorDoc `json:"error,omitempty"`
}

// SubmitResponse acknowledges an accepted submission.
type SubmitResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// StatszDoc is the wire form of the /statsz endpoint: server status plus
// the six sections of counters a server can carry, each declared once, in
// internal/stats. The queue is always present; the estimate cache, plan
// store, reuse catalog and journal are nil when the serving session runs
// without them, and the cluster section is nil unless the server mounts a
// coordinator.
type StatszDoc struct {
	Status       string         `json:"status"`
	Queue        stats.Queue    `json:"queue"`
	EstCache     *stats.Cache   `json:"estcache,omitempty"`
	PlanStore    *stats.Store   `json:"planstore,omitempty"`
	ReuseCatalog *stats.Reuse   `json:"reusecatalog,omitempty"`
	Journal      *stats.Journal `json:"journal,omitempty"`
	Cluster      *stats.Cluster `json:"cluster,omitempty"`
}
