package whatif

import (
	"fmt"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
)

// Prepared is an incremental What-if estimator for one plan under
// configuration search: the caller declares up front which jobs a probe may
// reconfigure, Prepare pays the full cost of everything scheduled before
// the first such job once, and each subsequent Estimate recomputes flow
// only for the affected cone — the changed jobs plus any job whose input
// dataset estimates actually changed — while replaying scheduling (cheap
// slot-pool arithmetic) from a snapshot.
//
// Equivalence contract: Prepared.Estimate returns estimates bit-identical
// to Estimator.Estimate on the same plan. Per-job flow arithmetic, the
// slot-pool operation order, and the pools' internal state are shared with
// the monolithic path, so no float ever takes a different path; the
// differential suite and the equivalence fuzz test enforce this.
//
// A Prepared is bound to the plan value passed to Prepare: callers mutate
// the configurations of the declared jobs in place between Estimate calls
// (the structure — jobs, branches, groups, partition specs — must not
// change). Like Estimator, it is not safe for concurrent use.
type Prepared struct {
	est  *Estimator
	plan *wf.Workflow

	fallback bool

	// Prefix snapshot: per-job estimates, dataset estimates, dataset-ready
	// times, and partial makespan for the jobs before suffix, plus the slot
	// pools' exact state after scheduling the prefix.
	prefixJobs     []prefixJob
	prefixDatasets []prefixDataset
	prefixReady    map[string]float64
	prefixMakespan float64
	mapPool        *mrsim.SlotPool
	redPool        *mrsim.SlotPool
	mapSnap        mrsim.PoolSnapshot
	redSnap        mrsim.PoolSnapshot

	// memo holds flow cards for suffix jobs, keyed per job by the exact
	// configuration they were computed under; a card is reused when the
	// job's configuration recurs and its input dataset estimates match the
	// card's (flow is a pure function of job, configuration, and inputs).
	// Unchanged jobs have a constant configuration, so their bucket holds
	// one card that survives while upstream probes leave their inputs
	// alone; changed jobs accumulate one card per visited configuration,
	// which the clustered probes of RRS's exploit phase revisit heavily.
	memo map[string]map[wf.Config]*jobCard

	// suffix is every job from the first changeable one on, in topological
	// order, with its distinct input/output dataset IDs precomputed:
	// job.Inputs/Outputs allocate per call, and probes run hundreds of
	// times per subplan. suffix[:window] ends at the last changeable job —
	// EstimateChanged's stop.
	suffix []suffixJob
	window int

	// cur* are EstimateChanged's reusable buffers: one Estimate skeleton
	// whose prefix entries are seeded once and whose suffix entries are
	// overwritten in place per call, so a probe allocates nothing
	// proportional to the plan.
	cur      *Estimate
	curReady map[string]float64
}

type suffixJob struct {
	job       *wf.Job
	ins, outs []string
}

type prefixJob struct {
	id string
	je JobEstimate
}

type prefixDataset struct {
	id string
	de DatasetEstimate
}

// Prepare builds an incremental estimator for w, declaring that subsequent
// probes mutate only the configurations of changedJobIDs. The prefix — every
// job topologically ordered before the first changeable job — is estimated
// and scheduled once, here. Delta estimates bypass the estimate cache —
// their whole point is that consecutive search probes are cheaper to
// re-derive than to fingerprint — but they share the estimator's
// memoization and are counted in Counts.
func (e *Estimator) Prepare(w *wf.Workflow, changedJobIDs []string) (*Prepared, error) {
	order, err := w.TopoSort()
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		est:  e,
		plan: w,
		memo: make(map[string]map[wf.Config]*jobCard),
	}
	if !profile.HasFullProfiles(w) || !hasBaseSizes(w) {
		// Fallback costing ignores configurations entirely; every Estimate
		// reproduces the monolithic #jobs answer.
		p.fallback = true
		return p, nil
	}
	changed := make(map[string]bool, len(changedJobIDs))
	for _, id := range changedJobIDs {
		changed[id] = true
	}
	split := len(order) // topo index of the first changeable job
	for i, job := range order {
		if changed[job.ID] {
			split = i
			break
		}
	}

	// Run flow + scheduling for the prefix once. This mirrors the
	// monolithic loop exactly, so the pools' state at the split point is
	// the state a full estimate would have reached.
	datasets := make(map[string]*DatasetEstimate, len(w.Datasets))
	seedBaseDatasets(w, datasets)
	p.mapPool = mrsim.NewSlotPool(e.Cluster.TotalMapSlots())
	p.redPool = mrsim.NewSlotPool(e.Cluster.TotalReduceSlots())
	p.prefixReady = make(map[string]float64)
	for _, job := range order[:split] {
		jobReady := readyTime(job, p.prefixReady)
		card, err := e.flowJob(job, datasets)
		if err != nil {
			return nil, fmt.Errorf("whatif: job %s: %w", job.ID, err)
		}
		end := scheduleJob(card, jobReady, p.mapPool, p.redPool)
		je := card.jobEstimate(jobReady, end)
		card.applyOutputs(datasets)
		p.prefixJobs = append(p.prefixJobs, prefixJob{id: job.ID, je: *je})
		for _, out := range job.Outputs() {
			p.prefixReady[out] = je.End
		}
		if je.End > p.prefixMakespan {
			p.prefixMakespan = je.End
		}
	}
	for id, de := range datasets {
		p.prefixDatasets = append(p.prefixDatasets, prefixDataset{id: id, de: *de})
	}
	p.mapSnap = p.mapPool.Snapshot()
	p.redSnap = p.redPool.Snapshot()
	for _, job := range order[split:] {
		p.suffix = append(p.suffix, suffixJob{job: job, ins: job.Inputs(), outs: job.Outputs()})
		if changed[job.ID] {
			p.window = len(p.suffix)
		}
	}
	return p, nil
}

// Estimate predicts the execution of the prepared plan under its current
// configurations. Flow is recomputed only for changed jobs and for jobs
// whose input dataset estimates differ from their memoized card; everything
// else replays. The result is bit-identical to Estimator.Estimate on the
// same plan and safe for the caller to hold across calls; like every
// estimate in this package it must be treated as immutable — its prefix
// entries alias the prepared snapshot, its Layout slice fields plan/card
// state.
func (p *Prepared) Estimate() (*Estimate, error) {
	est, ready := p.newBuffers()
	return p.replay(est, ready, p.suffix)
}

// EstimateChanged is the configuration search's probe path: Estimate
// truncated after the last changeable job in topological order — jobs
// scheduled later cannot influence when the changeable jobs (or anything
// before them) run, so a caller pricing only the changeable jobs can skip
// the tail entirely. Every JobEstimate and DatasetEstimate present is
// bit-identical to the full estimate's; Makespan covers only the processed
// prefix+window, so callers needing whole-plan makespan must use Estimate.
//
// The returned Estimate is a reused buffer: it is valid only until the next
// EstimateChanged call and must not be mutated or retained. (Estimate
// returns fresh allocations and has no such restriction.)
func (p *Prepared) EstimateChanged() (*Estimate, error) {
	if p.cur == nil {
		p.cur, p.curReady = p.newBuffers()
	}
	return p.replay(p.cur, p.curReady, p.suffix[:p.window])
}

// newBuffers builds an Estimate skeleton and dataset-ready map seeded with
// the prefix snapshot. The entries point into the snapshot itself: replay
// writes suffix entries only, so the prefix stays immutable.
func (p *Prepared) newBuffers() (*Estimate, map[string]float64) {
	est := &Estimate{
		Jobs:     make(map[string]*JobEstimate, len(p.plan.Jobs)),
		Datasets: make(map[string]*DatasetEstimate, len(p.plan.Datasets)),
	}
	for i := range p.prefixJobs {
		est.Jobs[p.prefixJobs[i].id] = &p.prefixJobs[i].je
	}
	for i := range p.prefixDatasets {
		est.Datasets[p.prefixDatasets[i].id] = &p.prefixDatasets[i].de
	}
	ready := make(map[string]float64, len(p.prefixReady))
	for id, t := range p.prefixReady {
		ready[id] = t
	}
	return est, ready
}

// replay is the one delta-estimate loop: it restores the slot pools to the
// prefix snapshot and schedules jobs (a leading run of p.suffix) into est
// and ready, which newBuffers seeded — freshly for Estimate, once per
// Prepared for EstimateChanged. Suffix entries are overwritten in place
// where a previous replay into the same buffers left them, and allocated
// otherwise.
func (p *Prepared) replay(est *Estimate, ready map[string]float64, jobs []suffixJob) (*Estimate, error) {
	p.est.deltaCalls++
	if p.fallback {
		return fallbackEstimate(p.plan), nil
	}
	est.Makespan = p.prefixMakespan
	p.mapPool.Restore(p.mapSnap)
	p.redPool.Restore(p.redSnap)
	for i := range jobs {
		w := &jobs[i]
		// Stale suffix entries from the previous probe are safe: topological
		// order guarantees every entry a job reads was refreshed this probe
		// (prefix entries are immutable; suffix inputs come from suffix jobs
		// already processed above).
		jobReady := 0.0
		for _, in := range w.ins {
			if t := ready[in]; t > jobReady {
				jobReady = t
			}
		}
		card, err := p.probeCard(w.job, est.Datasets)
		if err != nil {
			return nil, err
		}
		end := scheduleJob(card, jobReady, p.mapPool, p.redPool)
		je := est.Jobs[w.job.ID]
		if je == nil {
			je = &JobEstimate{}
			est.Jobs[w.job.ID] = je
		}
		card.fillJobEstimate(je, jobReady, end)
		for i := range card.outputs {
			if de := est.Datasets[card.outputs[i].id]; de != nil {
				*de = card.outputs[i].est
			} else {
				v := card.outputs[i].est
				est.Datasets[card.outputs[i].id] = &v
			}
		}
		for _, out := range w.outs {
			ready[out] = je.End
		}
		if je.End > est.Makespan {
			est.Makespan = je.End
		}
	}
	return est, nil
}

// probeCard returns the job's flow card for its current configuration and
// input estimates, recomputing on a memo miss.
func (p *Prepared) probeCard(job *wf.Job, datasets map[string]*DatasetEstimate) (*jobCard, error) {
	bucket := p.memo[job.ID]
	if bucket == nil {
		bucket = make(map[wf.Config]*jobCard)
		p.memo[job.ID] = bucket
	}
	card := bucket[job.Config]
	if card == nil || !card.inputsMatch(datasets) {
		var err error
		card, err = p.est.flowJob(job, datasets)
		if err != nil {
			return nil, fmt.Errorf("whatif: job %s: %w", job.ID, err)
		}
		bucket[job.Config] = card
	}
	return card, nil
}

// Plan returns the workflow this Prepared is bound to.
func (p *Prepared) Plan() *wf.Workflow { return p.plan }
