// Package whatif is the cost estimator standing in for Starfish's What-if
// Engine (Section 5). Given (1) dataflow and cost statistics from profile
// annotations, (2) a configuration per job, (3) size and layout information
// for the input datasets, and (4) the cluster setup, it predicts per-job
// and whole-workflow running times. It prices tasks through the functions
// the mrsim executor charges them with (mrsim.Cluster.MapTaskCost and
// ReduceTaskCost) and sizes reduce fan-out by the same rule
// (wf.Job.NumReduceTasks, wf.ReduceGroup.Partitions), feeding them
// estimated aggregates instead of observed per-task data.
//
// When profile or dataset annotations are missing, estimation falls back to
// the simpler #jobs cost model, as the paper prescribes for the information
// spectrum.
//
// # Architecture
//
// Estimation is one walk over the workflow's jobs in topological order
// (Estimator.walk, below), and every entry point is that walk. Per job it
// takes the ready time from the input datasets, the job's flow card — the
// pure per-job computation of flow.go: input pruning, tag flow, the combiner
// model, skew, task counts, average and straggler task durations, output
// dataset estimates — the job's place on the workflow's shared map and
// reduce slot pools (schedule.go), and publishes the
// JobEstimate and the output DatasetEstimates the jobs downstream read.
// Estimate walks every job with fresh cards. Prepare (prepared.go) walks the
// jobs before the first one a configuration search may change, once, and
// snapshots the pools; each probe then walks only the rest, taking cards from
// a memo and recomputing flow only for jobs the probe actually affects.
// Robustness (robust.go) walks the plan once per fault seed on perturbed
// pools with one memo, so flow runs once. A memo's storage outlives it: a
// closed Prepared and a finished Robustness hand their cards and their
// cleared table back to the Estimator, and the next memo on it — the next
// subplan's search, on a tuning worker's estimator — reuses them instead of
// allocating its own. An estimator built with NewCached
// additionally answers whole-workflow estimates from a shared Cache
// (cache.go) — one mutex over one LRU, keyed by canonical workflow
// fingerprint; delta estimates and robustness replays never consult it.
package whatif

import (
	"cmp"
	"context"
	"slices"

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
// plans whose key samples are identical), and it owns the flow layer's
// scratch: flowJob works in per-input and per-tag slices rewritten on every
// call, so a flow card allocates only its own storage; a Prepared's memo
// recomputes a stale card in place rather than allocating a new one, and a
// new memo card reuses one a closed memo handed back. It is
// not safe for concurrent use (skew and fingerprint memoization and the
// flow scratch are private state); concurrent searches each hold their own
// Estimator around one shared Cache, which is concurrent-safe and
// deduplicates in-flight work across them.
type Estimator struct {
	Cluster *mrsim.Cluster
	// cache, when non-nil, memoizes whole-workflow estimates across every
	// estimator sharing it; hasher and clusterFP build its keys.
	cache     *Cache
	hasher    *wf.Hasher
	clusterFP uint64
	skewCache map[skewKey]float64
	// digests memoizes the content digests of write-once tuple lists — key
	// samples and range split points, which plan clones share rather than
	// copy — by the list's first-tuple address and length. The pointer map
	// key pins the backing array, so an address uniquely identifies one list
	// for the estimator's lifetime. (A formatted "%p" inside a string key —
	// an earlier scheme — pins nothing: a freed sample's address could be
	// reused by a different sample, resurrecting stale skew entries
	// nondeterministically with GC timing.)
	digests map[tuplesRef]uint64
	// flowIns and flowTags are flowJob's scratch: the job's distinct inputs
	// in input order and its groups in tag order, overwritten per call.
	flowIns  []inEst
	flowTags []tagEst
	// spareCards and spareMemo are the storage of released card memos (see
	// releaseMemo): cards a memo may rewrite, and one cleared table.
	spareCards []*jobCard
	spareMemo  cardMemo
	requests   uint64 // EstimateContext calls plus Prepared's delta estimates
	computed   uint64 // runs of the monolithic walk (every EstimateContext call without a cache)
	flowCards  uint64
}

// tuplesRef identifies a non-empty tuple list by the address of its first
// tuple and its length.
type tuplesRef struct {
	first *keyval.Tuple
	n     int
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
		Cluster:   c,
		cache:     cache,
		skewCache: make(map[skewKey]float64),
		digests:   make(map[tuplesRef]uint64),
	}
	if cache != nil {
		e.hasher = wf.NewHasher()
		e.clusterFP = ClusterFingerprint(c)
	}
	return e
}

// digest returns keyval.HashTuples of a non-empty write-once tuple list,
// memoized by its (pinned) address.
func (e *Estimator) digest(ts []keyval.Tuple) uint64 {
	k := tuplesRef{&ts[0], len(ts)}
	if h, ok := e.digests[k]; ok {
		return h
	}
	h := keyval.HashTuples(ts)
	e.digests[k] = h
	return h
}

// Counts reports what-if activity: full estimates, delta estimates issued
// through Prepare, and per-job flow computations.
func (e *Estimator) Counts() Counts {
	return Counts{
		Requests:  e.requests,
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
// ctx.Err(), and a canceled computation is never cached. Waiting on another
// estimator's computation of the same plan ends with ctx too, and that
// estimator's cancellation is never this caller's error (Cache.GetOrCompute).
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
	return e.cache.GetOrCompute(ctx, key, jobIDs, func() (*Estimate, error) {
		return e.compute(ctx, w)
	})
}

// compute is the monolithic estimate: the walk over every job with nothing
// prepared and no memo. It is the reference the incremental path
// (prepared.go) is tested against.
func (e *Estimator) compute(ctx context.Context, w *wf.Workflow) (*Estimate, error) {
	e.computed++
	jobs, est, err := open(w)
	if err != nil {
		return nil, err
	}
	if est == nil {
		return fallbackEstimate(w), nil
	}
	_, _, place := e.nominalPools()
	wk := walkState{workflow: w.Name, est: est, ready: make(map[string]float64), place: place}
	if err := e.walk(ctx, &wk, jobs); err != nil {
		return nil, err
	}
	return est, nil
}

// fallbackEstimate is the #jobs cost model used when annotations are
// insufficient for cost-based estimation.
func fallbackEstimate(w *wf.Workflow) *Estimate {
	return &Estimate{Makespan: float64(len(w.Jobs)), Fallback: true,
		Jobs: map[string]*JobEstimate{}, Datasets: map[string]*DatasetEstimate{}}
}

// walkJob is one job of a walk with its index in the workflow's topological
// order and its distinct input and output dataset IDs resolved once:
// job.Inputs/Outputs allocate per call, and a Prepared walks the same jobs
// hundreds of times per subplan.
type walkJob struct {
	idx       int
	job       *wf.Job
	ins, outs []string
}

// open starts an estimate of w: its jobs in topological order and an Estimate
// holding the base datasets. A nil Estimate without an error means the
// annotations — a profile on every job, a size on every base dataset — are
// insufficient for cost-based estimation.
func open(w *wf.Workflow) ([]walkJob, *Estimate, error) {
	order, err := w.TopoSort()
	if err != nil {
		return nil, nil, err
	}
	if !profile.HasFullProfiles(w) {
		return nil, nil, nil
	}
	est := &Estimate{
		Jobs:     make(map[string]*JobEstimate, len(w.Jobs)),
		Datasets: make(map[string]*DatasetEstimate, len(w.Datasets)),
	}
	for _, d := range w.Datasets {
		if !d.Base {
			continue
		}
		if d.EstRecords <= 0 || d.EstBytes <= 0 {
			return nil, nil, nil
		}
		parts := max(d.EstPartitions, 1)
		est.Datasets[d.ID] = &DatasetEstimate{
			Records:      d.EstRecords,
			Bytes:        d.EstBytes,
			Partitions:   parts,
			Layout:       d.Layout.Clone(),
			MaxPartShare: 1 / float64(parts),
		}
	}
	jobs := make([]walkJob, len(order))
	for i, job := range order {
		jobs[i] = walkJob{idx: i, job: job, ins: job.Inputs(), outs: job.Outputs()}
	}
	return jobs, est, nil
}

// walkState is one estimate in progress: what the jobs walked so far
// published, and where the next job's card and slots come from.
type walkState struct {
	workflow string // named in errors
	est      *Estimate
	// ready is when each dataset written so far is materialized (base
	// datasets, absent, are ready at time zero).
	ready map[string]float64
	// memo, when non-nil, answers cards computed before for the same job,
	// configuration and input estimates; nil computes every card.
	memo cardMemo
	// place schedules a card's tasks: scheduleJob on the nominal slot pools,
	// or Robustness's replayJob on perturbed ones.
	place placer
}

// cardMemo holds flow cards keyed by job and the exact configuration they
// were computed under; a card is reused when the job's configuration recurs
// and its input dataset estimates match the card's (flow is a pure function
// of job, configuration, and inputs). Unchanged jobs have a constant
// configuration, so they hold one card that survives while upstream probes
// leave their inputs alone; changed jobs accumulate one card per visited
// configuration, which the clustered probes of RRS's exploit phase revisit
// heavily. A memo serves one workflow, so a job is its topological index.
type cardMemo map[memoKey]*jobCard

// memoKey identifies one memoized card: the job's topological index and its
// configuration.
type memoKey struct {
	job int
	cfg wf.Config
}

// takeMemo returns an empty card memo for one Prepared or Robustness walk:
// the table the last released memo left, or a new one.
func (e *Estimator) takeMemo() cardMemo {
	m := e.spareMemo
	e.spareMemo = nil
	if m == nil {
		m = make(cardMemo)
	}
	return m
}

// releaseMemo hands a memo that no walk will read again back to the
// estimator: its cards become spares that card rewrites before allocating,
// and the table, cleared with its capacity kept, is the next takeMemo's.
// Estimates published from the cards stay valid: walk published value
// copies, and flowJob replaces a layout's slices but never writes into
// their arrays. The spares are ordered by their dataset storage's capacity,
// so which card a later flow rewrites — and so what it allocates — does not
// depend on map iteration order.
func (e *Estimator) releaseMemo(m cardMemo) {
	for _, c := range m {
		e.spareCards = append(e.spareCards, c)
	}
	slices.SortFunc(e.spareCards, func(a, b *jobCard) int {
		return cmp.Compare(cap(a.inputs), cap(b.inputs))
	})
	clear(m)
	e.spareMemo = m
}

// walk is the estimator's one loop, shared by every entry point so that no
// float ever takes a different path. For each job, in the order given: the
// ready time is the latest of its input datasets', the flow card comes from
// the memo or flowJob, place puts its tasks on the slots, and the JobEstimate
// and output DatasetEstimates are published for the jobs downstream. Entries
// already present in wk.est (a Prepared's reused probe buffers) are
// overwritten in place and allocated otherwise. Stale entries from an earlier
// walk into the same buffers are safe: topological order guarantees every
// entry a job reads was refreshed by this walk or belongs to jobs before it.
// Published DatasetEstimates are value copies of the card's, so scalar fields
// are caller-independent; the Layout slice fields still alias the card's
// (layouts are treated as immutable throughout the estimator).
func (e *Estimator) walk(ctx context.Context, wk *walkState, jobs []walkJob) error {
	est := wk.est
	for i := range jobs {
		if err := ctx.Err(); err != nil {
			return err
		}
		j := &jobs[i]
		jobReady := 0.0
		for _, in := range j.ins {
			if t := wk.ready[in]; t > jobReady {
				jobReady = t
			}
		}
		card, err := e.card(j, est.Datasets, wk.memo)
		if err != nil {
			return &stubbyerr.Error{Kind: stubbyerr.KindInvalid, Op: "whatif",
				Workflow: wk.workflow, Job: j.job.ID, Err: err}
		}
		end := wk.place(card, j.job.ID, jobReady)
		je := est.Jobs[j.job.ID]
		if je == nil {
			je = &JobEstimate{}
			est.Jobs[j.job.ID] = je
		}
		*je = JobEstimate{
			MapTasks:            card.mapTasks,
			ReduceTasks:         card.reduceTasks,
			AvgMapTaskSec:       card.avgMapDur,
			AvgReduceTaskSec:    card.avgRedDur,
			MaxReduceTaskSec:    card.maxRedDur,
			ShuffleBytesVirtual: card.shuffleWire,
			Start:               jobReady,
			End:                 end,
		}
		for k := range card.outputs {
			out := &card.outputs[k]
			if de := est.Datasets[out.id]; de != nil {
				*de = out.est
			} else {
				v := out.est
				est.Datasets[out.id] = &v
			}
		}
		for _, out := range j.outs {
			wk.ready[out] = end
		}
		if end > est.Makespan {
			est.Makespan = end
		}
	}
	return nil
}

// card returns the job's flow card for its current configuration and input
// estimates, computing it unless the memo holds one. A memoized card whose
// inputs no longer match is recomputed into its own storage: nothing reads a
// card after its walk step, so the stale answer has no other reader. A new
// memo card is a spare when the estimator has one. If flow fails, the
// half-written card leaves the memo for the spares.
func (e *Estimator) card(j *walkJob, datasets map[string]*DatasetEstimate, memo cardMemo) (*jobCard, error) {
	key := memoKey{j.idx, j.job.Config}
	var card *jobCard
	if memo != nil {
		if card = memo[key]; card != nil && card.inputsMatch(datasets) {
			return card, nil
		}
		if n := len(e.spareCards); card == nil && n > 0 {
			card = e.spareCards[n-1]
			e.spareCards = e.spareCards[:n-1]
		}
	}
	if card == nil {
		card = &jobCard{}
	}
	if err := e.flowJob(j.job, j.ins, datasets, card); err != nil {
		if memo != nil {
			delete(memo, key)
			e.spareCards = append(e.spareCards, card)
		}
		return nil, err
	}
	if memo != nil {
		memo[key] = card
	}
	return card, nil
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
