package whatif

import (
	"context"
	"errors"
	"sort"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
	"github.com/stubby-mr/stubby/internal/wf"
)

var errNilModel = errors.New("robustness requires a fault model")

// DefaultRobustnessSamples is the Monte-Carlo sample count used when
// RobustnessOptions leaves Samples zero.
const DefaultRobustnessSamples = 32

// RobustnessOptions configures Monte-Carlo robustness evaluation.
type RobustnessOptions struct {
	// Model is the fault model to perturb with; sample i runs under
	// Model.Reseed(mrsim.PerturbSeed(Model.Seed, i)).
	Model *mrsim.FaultModel
	// Samples is the number of perturbation seeds (default
	// DefaultRobustnessSamples).
	Samples int
}

// Robustness is a plan's makespan distribution under perturbation: the
// flow layer runs once and the scheduling layer is replayed across N
// fault seeds, so the whole report costs N schedule replays, not N
// estimates.
type Robustness struct {
	// Samples is the number of perturbation seeds evaluated.
	Samples int
	// Mean and the percentiles summarize the per-sample makespans.
	Mean, P50, P95, P99, Min, Max float64
	// FailedOut counts samples in which some task exhausted its retry
	// budget (its fail time still contributes to that sample's makespan).
	FailedOut int
	// Makespans holds the per-sample makespans in sample order.
	Makespans []float64
}

// percentileSorted returns the q-quantile (0 < q <= 1) of the ascending
// makespans in sorted, using the nearest-rank method.
func percentileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Robustness Monte-Carlo-replays w's scheduling under opt.Model. Flow
// cards are computed once (the same per-job cards Estimate uses); each
// sample then replays only the scheduling layer against perturbed
// heterogeneous slot pools rewound with Snapshot/Restore — the same
// replay structure the incremental estimator uses for SlotPool. Unlike
// the nominal schedule, the replay spreads per-task durations (one
// straggler task at the card's max duration, placed in the first wave,
// the rest at the average), so skewed jobs perturb realistically.
//
// The result is a pure function of (w, cluster, model, samples). When the
// workflow lacks the annotations for cost-based estimation (the fallback
// #jobs regime), robustness is not computable and (nil, nil) is returned.
func (e *Estimator) Robustness(ctx context.Context, w *wf.Workflow, opt RobustnessOptions) (*Robustness, error) {
	if opt.Model == nil {
		return nil, &stubbyerr.Error{Kind: stubbyerr.KindInvalid, Op: "whatif.robustness",
			Workflow: w.Name, Err: errNilModel}
	}
	if err := opt.Model.Validate(); err != nil {
		return nil, &stubbyerr.Error{Kind: stubbyerr.KindInvalid, Op: "whatif.robustness",
			Workflow: w.Name, Err: err}
	}
	samples := opt.Samples
	if samples <= 0 {
		samples = DefaultRobustnessSamples
	}
	jobs, est, err := open(w)
	if err != nil || est == nil {
		return nil, err
	}

	// One walk per fault seed. The memo makes the first walk the flow layer's
	// only run: configurations never change and every walk publishes the same
	// dataset estimates, so each later one finds every card. Its storage is
	// the estimator's and goes back to it when the report is done.
	memo := e.takeMemo()
	defer e.releaseMemo(memo)
	mapPool := mrsim.NewFaultyPool(opt.Model.SlotSpeeds(e.Cluster, false))
	redPool := mrsim.NewFaultyPool(opt.Model.SlotSpeeds(e.Cluster, true))
	mapSnap, redSnap := mapPool.Snapshot(), redPool.Snapshot()
	rep := &Robustness{Samples: samples, Makespans: make([]float64, 0, samples)}
	var fm *mrsim.FaultModel // the sample's reseeded model
	var failed bool          // whether a task of the sample failed out
	wk := walkState{workflow: w.Name, est: est, memo: memo,
		ready: make(map[string]float64, len(w.Datasets)),
		place: func(card *jobCard, jobID string, jobReady float64) float64 {
			return replayJob(fm, card, jobID, jobReady, mapPool, redPool, &failed)
		}}
	for i := 0; i < samples; i++ {
		fm = opt.Model.Reseed(mrsim.PerturbSeed(opt.Model.Seed, i))
		mapPool.Restore(mapSnap)
		redPool.Restore(redSnap)
		est.Makespan, failed = 0, false
		if err := e.walk(ctx, &wk, jobs); err != nil {
			return nil, err
		}
		if failed {
			rep.FailedOut++
		}
		rep.Makespans = append(rep.Makespans, est.Makespan)
	}

	var sum float64
	sorted := append([]float64(nil), rep.Makespans...)
	sort.Float64s(sorted)
	for _, m := range sorted {
		sum += m
	}
	rep.Mean = sum / float64(len(sorted))
	rep.Min, rep.Max = sorted[0], sorted[len(sorted)-1]
	rep.P50 = percentileSorted(sorted, 0.50)
	rep.P95 = percentileSorted(sorted, 0.95)
	rep.P99 = percentileSorted(sorted, 0.99)
	return rep, nil
}

// replayJob replays one card's tasks under the fault model, spreading
// durations: task 0 is the straggler (max duration) and is placed first, so
// it holds a slot from the first wave; the rest run at the average. The
// fault-free estimate's scheduleJob orders them the other way round — the
// average tasks as one uniform pack, then the straggler.
func replayJob(fm *mrsim.FaultModel, card *jobCard, jobID string, jobReady float64, mapPool, redPool *mrsim.FaultyPool, failed *bool) float64 {
	mapsDone := jobReady
	for t := 0; t < card.mapTasks; t++ {
		dur := card.avgMapDur
		if t == 0 {
			dur = card.maxMapDur
		}
		fate := fm.ScheduleTask(mapPool, fm.TaskKey(jobID, false, t), jobReady, dur)
		if fate.FailedOut {
			*failed = true
		}
		if fate.End > mapsDone {
			mapsDone = fate.End
		}
	}
	end := mapsDone
	for t := 0; t < card.reduceTasks; t++ {
		dur := card.avgRedDur
		if t == 0 {
			dur = card.maxRedDur
		}
		fate := fm.ScheduleTask(redPool, fm.TaskKey(jobID, true, t), mapsDone, dur)
		if fate.FailedOut {
			*failed = true
		}
		if fate.End > end {
			end = fate.End
		}
	}
	return end
}
