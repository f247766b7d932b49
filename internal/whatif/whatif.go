// Package whatif is the cost estimator standing in for Starfish's What-if
// Engine (Section 5). Given (1) dataflow and cost statistics from profile
// annotations, (2) a configuration per job, (3) size and layout information
// for the input datasets, and (4) the cluster setup, it predicts per-job
// and whole-workflow running times using the same cost formulas the mrsim
// executor charges, applied to estimated aggregates instead of observed
// per-task data.
//
// When profile or dataset annotations are missing, estimation falls back to
// the simpler #jobs cost model, as the paper prescribes for the information
// spectrum.
//
// # Architecture
//
// Estimation is split into two layers. The flow layer (flow.go) is the pure
// per-job computation — input pruning, tag flow, the combiner model, skew,
// task counts, average and straggler task durations, and output dataset
// estimates — producing an immutable per-job duration card. The scheduling
// layer (schedule.go) replays cards against the workflow's shared map and
// reduce slot pools, which is cheap arithmetic. Estimate composes the two;
// Prepare (prepared.go) exploits the split to answer configuration-search
// probes incrementally, recomputing flow only for jobs a probe actually
// affects while replaying scheduling from a slot-pool snapshot. An estimator
// built with NewCached additionally answers whole-workflow estimates from a
// shared, concurrent-safe Cache (cache.go) keyed by canonical workflow
// fingerprint; delta estimates and robustness replays never consult it.
package whatif

import (
	"context"
	"errors"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
	"github.com/stubby-mr/stubby/internal/wf"
)

// DatasetEstimate is the estimator's belief about one dataset.
type DatasetEstimate struct {
	Records    float64
	Bytes      float64
	Partitions int
	Layout     wf.Layout
	// MaxPartShare is the estimated fraction of the dataset held by its
	// most loaded partition (>= 1/Partitions) — aligned consumers inherit
	// this as map-task skew.
	MaxPartShare float64
}

// JobEstimate is the predicted execution of one job.
type JobEstimate struct {
	MapTasks, ReduceTasks int
	// AvgMapTaskSec / AvgReduceTaskSec are mean task durations;
	// MaxReduceTaskSec includes the skew estimate from key samples.
	AvgMapTaskSec, AvgReduceTaskSec, MaxReduceTaskSec float64
	// Start/End are predicted simulated times within the workflow.
	Start, End float64
	// ShuffleBytesVirtual is the predicted on-wire shuffle volume.
	ShuffleBytesVirtual float64
}

// Span returns the predicted job span.
func (j *JobEstimate) Span() float64 { return j.End - j.Start }

// Estimate is the What-if engine's answer for a workflow.
type Estimate struct {
	// Makespan is the predicted completion time. Under Fallback it is the
	// job count (a coarse, unit-free cost).
	Makespan float64
	// Fallback marks that annotations were insufficient for cost-based
	// estimation and the #jobs model was used.
	Fallback bool
	Jobs     map[string]*JobEstimate
	Datasets map[string]*DatasetEstimate
}

// Counts reports what-if activity through one estimator.
type Counts struct {
	// Requests is every estimate request issued: full workflow estimates
	// plus incremental (Prepared) delta estimates.
	Requests uint64
	// Computed is how many requests ran the full monolithic estimator
	// here. Delta estimates, cache hits, and waits on another estimator's
	// in-flight computation are excluded — their cost shows up in
	// FlowCards instead.
	Computed uint64
	// FlowCards is the number of per-job flow computations performed — the
	// expensive unit of estimation work. A full estimate of an n-job
	// workflow computes n cards; a delta estimate computes cards only for
	// the affected cone.
	FlowCards uint64
}

// Add accumulates another estimator's counters.
func (c *Counts) Add(o Counts) {
	c.Requests += o.Requests
	c.Computed += o.Computed
	c.FlowCards += o.FlowCards
}

// Estimator predicts workflow cost on a given cluster. It memoizes skew
// computations across calls (configuration search evaluates thousands of
// plans whose key samples are identical). It is not safe for concurrent use
// (skew and fingerprint memoization are private state); concurrent searches
// each hold their own Estimator around one shared Cache, which is
// concurrent-safe and deduplicates in-flight work across them.
type Estimator struct {
	Cluster *mrsim.Cluster
	// cache, when non-nil, memoizes whole-workflow estimates across every
	// estimator sharing it; hasher and clusterFP build its keys.
	cache     *Cache
	hasher    *wf.Hasher
	clusterFP uint64
	skewCache map[skewKey]float64
	// sampleHashes memoizes key-sample content digests by the address of
	// the sample's first tuple. The pointer map key pins the backing array,
	// so an address uniquely identifies one sample for the estimator's
	// lifetime. (A formatted "%p" inside a string key — the previous
	// scheme — pins nothing: a freed sample's address could be reused by a
	// different sample, resurrecting stale skew entries nondeterministically
	// with GC timing.)
	sampleHashes map[*keyval.Tuple]uint64
	requests     uint64 // EstimateContext calls
	computed     uint64 // runs of the monolithic loop (all of requests without a cache)
	deltaCalls   uint64
	flowCards    uint64
}

// skewKey identifies one skew-cache entry without allocating: the partition
// scheme, the projected key fields and split points (hashed), and the key
// sample's content digest. Comparable struct keys keep per-sample lookups
// on the configuration-search hot path allocation-free.
type skewKey struct {
	ranged   bool
	numParts int // 0 for hash partitioning (sample count is parts-free there)
	fields   uint64
	splits   uint64
	sample   uint64
}

// New builds an estimator without an estimate cache.
func New(c *mrsim.Cluster) *Estimator { return NewCached(c, nil) }

// NewCached builds an estimator whose whole-workflow estimates are answered
// from, and on a miss added to, the shared cache (nil: every estimate is
// computed).
func NewCached(c *mrsim.Cluster, cache *Cache) *Estimator {
	e := &Estimator{
		Cluster:      c,
		cache:        cache,
		skewCache:    make(map[skewKey]float64),
		sampleHashes: make(map[*keyval.Tuple]uint64),
	}
	if cache != nil {
		e.hasher = wf.NewHasher()
		e.clusterFP = ClusterFingerprint(c)
	}
	return e
}

// sampleHash digests a key sample's contents, memoized by (pinned) address.
func (e *Estimator) sampleHash(sample []keyval.Tuple) uint64 {
	p := &sample[0]
	if h, ok := e.sampleHashes[p]; ok {
		return h
	}
	h := keyval.HashTuples(sample)
	e.sampleHashes[p] = h
	return h
}

// Counts reports what-if activity: full estimates, delta estimates issued
// through Prepare, and per-job flow computations.
func (e *Estimator) Counts() Counts {
	return Counts{
		Requests:  e.requests + e.deltaCalls,
		Computed:  e.computed,
		FlowCards: e.flowCards,
	}
}

// Estimate predicts the execution of w. Base datasets must carry size
// annotations and every job a profile annotation; otherwise the fallback
// #jobs model is returned (never an error, mirroring Stubby's tolerance of
// missing information). With a cache, a cost-equivalent workflow estimated
// before (by any estimator sharing the cache) is answered from it: the
// returned estimate is then shared and must be treated as immutable. Errors
// are never cached.
func (e *Estimator) Estimate(w *wf.Workflow) (*Estimate, error) {
	return e.EstimateContext(context.Background(), w)
}

// EstimateContext is Estimate under a context: a cache hit returns
// immediately; a computation checks cancellation between per-job flow
// computations, so estimates of long workflows stop promptly with
// ctx.Err(), and a canceled computation is never cached.
func (e *Estimator) EstimateContext(ctx context.Context, w *wf.Workflow) (*Estimate, error) {
	e.requests++
	if e.cache == nil {
		return e.compute(ctx, w)
	}
	key := CacheKey{Plan: e.hasher.Workflow(w), Cluster: e.clusterFP}
	jobIDs := make([]string, len(w.Jobs))
	for i, j := range w.Jobs {
		jobIDs[i] = j.ID
	}
	for {
		est, err := e.cache.GetOrCompute(key, jobIDs, func() (*Estimate, error) {
			return e.compute(ctx, w)
		})
		// The single flight returns the owner's error to every waiter. A
		// ctx-derived error with OUR ctx still live means a fingerprint-
		// equal caller was canceled mid-computation — their cancellation
		// must not poison this caller, so recompute (the failed flight was
		// removed, so the retry starts fresh).
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			continue
		}
		return est, err
	}
}

// compute is the monolithic estimate: flow and scheduling for every job in
// topological order. It is the reference the incremental path (prepared.go)
// is tested against.
func (e *Estimator) compute(ctx context.Context, w *wf.Workflow) (*Estimate, error) {
	e.computed++
	order, err := w.TopoSort()
	if err != nil {
		return nil, err
	}
	if !profile.HasFullProfiles(w) || !hasBaseSizes(w) {
		return fallbackEstimate(w), nil
	}
	est := &Estimate{
		Jobs:     make(map[string]*JobEstimate, len(w.Jobs)),
		Datasets: make(map[string]*DatasetEstimate, len(w.Datasets)),
	}
	seedBaseDatasets(w, est.Datasets)
	mapPool := mrsim.NewSlotPool(e.Cluster.TotalMapSlots())
	redPool := mrsim.NewSlotPool(e.Cluster.TotalReduceSlots())
	ready := make(map[string]float64)
	for _, job := range order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		jobReady := readyTime(job, ready)
		card, err := e.flowJob(job, est.Datasets)
		if err != nil {
			return nil, &stubbyerr.Error{Kind: stubbyerr.KindInvalid, Op: "whatif",
				Workflow: w.Name, Job: job.ID, Err: err}
		}
		end := scheduleJob(card, jobReady, mapPool, redPool)
		je := card.jobEstimate(jobReady, end)
		est.Jobs[job.ID] = je
		card.applyOutputs(est.Datasets)
		for _, out := range job.Outputs() {
			ready[out] = je.End
		}
		if je.End > est.Makespan {
			est.Makespan = je.End
		}
	}
	return est, nil
}

// fallbackEstimate is the #jobs cost model used when annotations are
// insufficient for cost-based estimation.
func fallbackEstimate(w *wf.Workflow) *Estimate {
	return &Estimate{Makespan: float64(len(w.Jobs)), Fallback: true,
		Jobs: map[string]*JobEstimate{}, Datasets: map[string]*DatasetEstimate{}}
}

// seedBaseDatasets fills dst with estimates for the workflow's base inputs.
func seedBaseDatasets(w *wf.Workflow, dst map[string]*DatasetEstimate) {
	for _, d := range w.Datasets {
		if d.Base {
			parts := maxInt(d.EstPartitions, 1)
			dst[d.ID] = &DatasetEstimate{
				Records:      d.EstRecords,
				Bytes:        d.EstBytes,
				Partitions:   parts,
				Layout:       d.Layout.Clone(),
				MaxPartShare: 1 / float64(parts),
			}
		}
	}
}

// readyTime is the earliest time every input of the job is materialized.
func readyTime(job *wf.Job, ready map[string]float64) float64 {
	jobReady := 0.0
	for _, in := range job.Inputs() {
		if t := ready[in]; t > jobReady {
			jobReady = t
		}
	}
	return jobReady
}

func hasBaseSizes(w *wf.Workflow) bool {
	for _, d := range w.Datasets {
		if d.Base && (d.EstRecords <= 0 || d.EstBytes <= 0) {
			return false
		}
	}
	return true
}

func ceilDiv(a, b float64) float64 {
	if b <= 0 {
		return 1
	}
	n := a / b
	if n != float64(int64(n)) {
		return float64(int64(n)) + 1
	}
	if n < 1 {
		return 1
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
