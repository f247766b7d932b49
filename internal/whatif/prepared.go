package whatif

import (
	"context"
	"maps"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/wf"
)

// Prepared is an incremental What-if estimator for one plan under
// configuration search: the caller declares up front which jobs a probe may
// reconfigure, Prepare pays the full cost of everything scheduled before
// the first such job once, and each subsequent Estimate recomputes flow
// only for the affected cone — the changed jobs plus any job whose input
// dataset estimates actually changed — while replaying scheduling on the
// slot pools from a snapshot.
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
//
// Close hands the Prepared's card memo back to its Estimator, whose next
// Prepare reuses that storage. Do not use a Prepared after Close; the
// estimates it returned stay valid (an EstimateChanged buffer holds its last
// answer).
type Prepared struct {
	est  *Estimator
	plan *wf.Workflow

	// Prefix snapshot: the estimate of the jobs before suffix — per-job and
	// dataset estimates and the partial makespan (a fallback estimate when
	// the plan lacks annotations) — with its dataset-ready times and the slot
	// pools' exact state after scheduling the prefix.
	prefix      *Estimate
	prefixReady map[string]float64
	mapPool     *mrsim.SlotPool
	redPool     *mrsim.SlotPool
	mapSnap     mrsim.PoolSnapshot
	redSnap     mrsim.PoolSnapshot

	// suffix is every job from the first changeable one on, in topological
	// order. suffix[:window] ends at the last changeable job —
	// EstimateChanged's stop.
	suffix []walkJob
	window int

	// memo and place are every probe's card source and scheduler (on
	// mapPool/redPool). The memo is the Estimator's until Close (nil for a
	// fallback plan and after Close).
	memo  cardMemo
	place placer

	// cur is EstimateChanged's reusable walk: one Estimate skeleton whose
	// prefix entries are seeded once and whose suffix entries are
	// overwritten in place per call, so a probe allocates nothing
	// proportional to the plan.
	cur *walkState
}

// Prepare builds an incremental estimator for w, declaring that subsequent
// probes mutate only the configurations of changedJobIDs. The prefix — every
// job topologically ordered before the first changeable job — is estimated
// and scheduled once, here. Delta estimates bypass the estimate cache —
// their whole point is that consecutive search probes are cheaper to
// re-derive than to fingerprint — but they share the estimator's
// memoization and are counted in Counts.
func (e *Estimator) Prepare(w *wf.Workflow, changedJobIDs []string) (*Prepared, error) {
	jobs, est, err := open(w)
	if err != nil {
		return nil, err
	}
	p := &Prepared{est: e, plan: w, prefix: est}
	if est == nil {
		// Fallback costing ignores configurations entirely; every Estimate
		// reproduces the monolithic #jobs answer.
		p.prefix = fallbackEstimate(w)
		return p, nil
	}
	changed := make(map[string]bool, len(changedJobIDs))
	for _, id := range changedJobIDs {
		changed[id] = true
	}
	split := len(jobs) // topo index of the first changeable job
	for i := range jobs {
		if changed[jobs[i].job.ID] {
			if i < split {
				split = i
			}
			p.window = i + 1 - split
		}
	}

	// Walk the prefix once, on the pools the probes rewind: their state at
	// the split point is the state a full estimate would have reached.
	p.mapPool, p.redPool, p.place = e.nominalPools()
	p.prefixReady = make(map[string]float64)
	wk := walkState{workflow: w.Name, est: est, ready: p.prefixReady, place: p.place}
	if err := e.walk(context.Background(), &wk, jobs[:split]); err != nil {
		return nil, err
	}
	p.mapSnap = p.mapPool.Snapshot()
	p.redSnap = p.redPool.Snapshot()
	p.suffix = jobs[split:]
	p.memo = e.takeMemo()
	return p, nil
}

// Close returns the memo's cards and table to the Estimator for the next
// Prepare or Robustness on it. A second Close does nothing.
func (p *Prepared) Close() {
	if p.memo == nil {
		return
	}
	p.est.releaseMemo(p.memo)
	p.memo, p.cur = nil, nil
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
	return p.replay(p.newWalk(), p.suffix)
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
		p.cur = p.newWalk()
	}
	return p.replay(p.cur, p.suffix[:p.window])
}

// newWalk builds a walk whose Estimate skeleton and dataset-ready map are
// seeded with the prefix snapshot. The entries point into the snapshot
// itself: replay writes suffix entries only, so the prefix stays immutable.
func (p *Prepared) newWalk() *walkState {
	wk := &walkState{workflow: p.plan.Name, memo: p.memo, place: p.place,
		est: &Estimate{
			Jobs:     make(map[string]*JobEstimate, len(p.plan.Jobs)),
			Datasets: make(map[string]*DatasetEstimate, len(p.plan.Datasets)),
		},
		ready: make(map[string]float64, len(p.prefixReady)),
	}
	maps.Copy(wk.est.Jobs, p.prefix.Jobs)
	maps.Copy(wk.est.Datasets, p.prefix.Datasets)
	maps.Copy(wk.ready, p.prefixReady)
	return wk
}

// replay is the one delta estimate: it rewinds the slot pools and the
// makespan to the prefix snapshot and walks jobs (a leading run of p.suffix)
// into wk, which newWalk seeded — freshly for Estimate, once per Prepared
// for EstimateChanged.
func (p *Prepared) replay(wk *walkState, jobs []walkJob) (*Estimate, error) {
	p.est.requests++
	if p.prefix.Fallback {
		return fallbackEstimate(p.plan), nil
	}
	wk.est.Makespan = p.prefix.Makespan
	p.mapPool.Restore(p.mapSnap)
	p.redPool.Restore(p.redSnap)
	if err := p.est.walk(context.Background(), wk, jobs); err != nil {
		return nil, err
	}
	return wk.est, nil
}
