package optimizer

import (
	"context"
	"math"
	"sort"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/rrs"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/whatif"
)

// Configuration transformation (Section 3.5) searched with RRS
// (Section 4.2): the unit's jobs' configuration knobs form one joint
// parameter space; the objective is the What-if estimate of the whole
// plan, so configuration effects on downstream consumers (e.g. output
// compression) are priced in.

// hysteresis guards incumbents against estimator noise: a tuned
// configuration, or a structural change over the unit's incumbent
// structure, must predict a cost below hysteresis × the incumbent's to
// displace it. Chasing smaller predicted gains only trades one noise
// optimum for another, and would let a later traversal phase churn what an
// earlier phase settled.
const hysteresis = 0.97

// configDim maps one RRS dimension onto a configuration field of one or
// more jobs (several when a many-to-one packing tied their reduce counts).
type configDim struct {
	param rrs.Param
	jobs  []string
	apply func(c *wf.Config, v float64)
	read  func(c wf.Config) float64
}

// tuneConfigs runs RRS over the configuration space of the unit's jobs in
// the given plan and returns the plan with the best configuration applied,
// its cost, and whether costing fell back to the #jobs model. The cost is
// the unit's completion time within the whole-plan estimate (Section 4.2:
// the subplan minimizing "the total running time of the MapReduce jobs in
// U(i)"), so effects on in-unit consumers are priced while unrelated
// downstream noise is not. The estimator is the calling tuning worker's
// own. Cancellation is checked between RRS evaluations.
func (s *Stubby) tuneConfigs(ctx context.Context, est *whatif.Estimator, plan *wf.Workflow, unitOrigins map[string]bool, seed int64) (*wf.Workflow, float64, bool, error) {
	dims := s.configSpace(plan, unitOrigins)
	unitJobs := jobsWithinOrigins(plan, unitOrigins)
	unitCost := func(est *whatif.Estimate) float64 {
		if est.Fallback {
			return est.Makespan
		}
		hi := 0.0
		lo := math.Inf(1)
		for _, id := range unitJobs {
			if je, ok := est.Jobs[id]; ok {
				if je.End > hi {
					hi = je.End
				}
				if je.Start < lo {
					lo = je.Start
				}
			}
		}
		if hi == 0 {
			return est.Makespan
		}
		if lo == math.Inf(1) {
			lo = 0
		}
		return hi - lo
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, false, err
	}
	baseEst, err := est.Estimate(plan)
	if err != nil {
		return nil, 0, false, err
	}
	if len(dims) == 0 || baseEst.Fallback || s.opt.DisableConfigSearch {
		// Nothing to tune, tuning disabled, or tuning cannot be costed:
		// keep configurations as provided.
		return plan, unitCost(baseEst), baseEst.Fallback, nil
	}
	params := make([]rrs.Param, len(dims))
	initial := make(rrs.Point, len(dims))
	for i, d := range dims {
		params[i] = d.param
		initial[i] = d.read(plan.Job(d.jobs[0]).Config)
	}
	applyPoint := func(target *wf.Workflow, pt rrs.Point) {
		for i, d := range dims {
			for _, id := range d.jobs {
				j := target.Job(id)
				if j != nil {
					d.apply(&j.Config, pt[i])
				}
			}
		}
	}
	scratch := plan.Clone()
	// The RRS objective mutates only the dims' jobs' configurations, so an
	// incremental (prepared) estimator can delta-estimate each probe: the
	// plan is split at the first changeable job, the prefix is estimated
	// once, and per-probe work shrinks to the affected cone plus a
	// scheduling replay. Estimates are bit-identical to the monolithic
	// path, so the search trajectory — and therefore the chosen plan — is
	// unchanged.
	estimateScratch := func() (*whatif.Estimate, error) { return est.Estimate(scratch) }
	if !s.opt.DisableIncremental {
		if prep, err := est.Prepare(scratch, dimJobs(dims)); err == nil {
			defer prep.Close()
			estimateScratch = prep.Estimate
			// unitCost reads only the unit jobs' start/end times — plus
			// whole-plan makespan in one degenerate branch that requires
			// a job with predicted End == 0, impossible once task setup
			// costs anything. On such clusters the tail scheduled after
			// the last unit job can be skipped outright.
			if s.cluster.TaskSetupSec > 0 {
				estimateScratch = prep.EstimateChanged
			}
		}
	}
	objective := func(pt rrs.Point) float64 {
		// Cancellation between RRS evaluations: short-circuit the rest of
		// the budget; the caller surfaces ctx.Err() after Minimize returns.
		if ctx.Err() != nil {
			return math.Inf(1)
		}
		applyPoint(scratch, pt)
		e, err := estimateScratch()
		if err != nil {
			return 1e18
		}
		return unitCost(e)
	}
	evals := s.opt.RRSEvals
	if evals <= 0 {
		// Adaptive budget: enough exploration and exploitation per
		// dimension for comparable tuning quality across subplans.
		evals = 50 + 25*len(dims)
		if evals > 900 {
			evals = 900
		}
	}
	res, err := rrs.Minimize(params, objective, initial, rrs.Options{
		MaxEvals:    evals,
		Seed:        s.opt.Seed ^ seed,
		ExploreOnly: s.opt.ConfigSearch == SearchRandom,
	})
	if err != nil {
		return nil, 0, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, false, err
	}
	incumbent := unitCost(baseEst)
	if res.Value > incumbent*hysteresis {
		return plan, incumbent, false, nil
	}
	tuned := plan.Clone()
	applyPoint(tuned, res.Best)
	return tuned, res.Value, false, nil
}

// dimJobs collects the distinct job IDs any dimension applies to — the set
// of jobs a configuration probe may reconfigure.
func dimJobs(dims []configDim) []string {
	seen := make(map[string]bool)
	var out []string
	for _, d := range dims {
		for _, id := range d.jobs {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// configSpace builds the joint parameter space for jobs within the unit.
func (s *Stubby) configSpace(plan *wf.Workflow, unitOrigins map[string]bool) []configDim {
	var dims []configDim
	tied := map[string][]string{} // ReduceCountGroup label -> job IDs
	ids := jobsWithinOrigins(plan, unitOrigins)
	sort.Strings(ids)
	for _, id := range ids {
		j := plan.Job(id)
		name := j.ID

		if !j.MapOnly() {
			if j.PinnedReducers {
				// Reducer count frozen by an alignment postcondition.
			} else if j.ReduceCountGroup != "" {
				tied[j.ReduceCountGroup] = append(tied[j.ReduceCountGroup], id)
			} else if !allGroupsRangePinned(j) {
				dims = append(dims, configDim{
					param: rrs.Param{Name: name + ".reduce", Min: 1,
						Max: float64(2 * s.cluster.TotalReduceSlots()), Integer: true},
					jobs:  []string{id},
					apply: func(c *wf.Config, v float64) { c.NumReduceTasks = int(v) },
					read:  func(c wf.Config) float64 { return float64(c.NumReduceTasks) },
				})
			}
			dims = append(dims, configDim{
				param: rrs.Param{Name: name + ".sortbuf", Min: 16, Max: 512, Integer: true},
				jobs:  []string{id},
				apply: func(c *wf.Config, v float64) { c.SortBufferMB = int(v) },
				read:  func(c wf.Config) float64 { return float64(c.SortBufferMB) },
			})
			dims = append(dims, configDim{
				param: rrs.Param{Name: name + ".sortfactor", Min: 5, Max: 100, Integer: true},
				jobs:  []string{id},
				apply: func(c *wf.Config, v float64) { c.IOSortFactor = int(v) },
				read:  func(c wf.Config) float64 { return float64(c.IOSortFactor) },
			})
			dims = append(dims, configDim{
				param: rrs.Param{Name: name + ".mapcomp", Min: 0, Max: 1, Integer: true},
				jobs:  []string{id},
				apply: func(c *wf.Config, v float64) { c.CompressMapOutput = v >= 0.5 },
				read:  func(c wf.Config) float64 { return boolToF(c.CompressMapOutput) },
			})
			if j.HasCombiner() {
				dims = append(dims, configDim{
					param: rrs.Param{Name: name + ".combiner", Min: 0, Max: 1, Integer: true},
					jobs:  []string{id},
					apply: func(c *wf.Config, v float64) { c.UseCombiner = v >= 0.5 },
					read:  func(c wf.Config) float64 { return boolToF(c.UseCombiner) },
				})
			}
		}
		if !j.AlignMapToInput {
			dims = append(dims, configDim{
				param: rrs.Param{Name: name + ".split", Min: 8, Max: 512, Integer: true},
				jobs:  []string{id},
				apply: func(c *wf.Config, v float64) { c.SplitSizeMB = int(v) },
				read:  func(c wf.Config) float64 { return float64(c.SplitSizeMB) },
			})
		}
		dims = append(dims, configDim{
			param: rrs.Param{Name: name + ".outcomp", Min: 0, Max: 1, Integer: true},
			jobs:  []string{id},
			apply: func(c *wf.Config, v float64) { c.CompressOutput = v >= 0.5 },
			read:  func(c wf.Config) float64 { return boolToF(c.CompressOutput) },
		})
	}
	var labels []string
	for label := range tied {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		group := tied[label]
		sort.Strings(group)
		dims = append(dims, configDim{
			param: rrs.Param{Name: label + ".reduce", Min: 1,
				Max: float64(2 * s.cluster.TotalReduceSlots()), Integer: true},
			jobs:  group,
			apply: func(c *wf.Config, v float64) { c.NumReduceTasks = int(v) },
			read:  func(c wf.Config) float64 { return float64(c.NumReduceTasks) },
		})
	}
	return dims
}

// allGroupsRangePinned reports whether every shuffling group uses range
// partitioning (whose split points pin the reduce-task count, removing the
// degree of freedom).
func allGroupsRangePinned(j *wf.Job) bool {
	any := false
	for _, g := range j.ReduceGroups {
		if g.MapOnly() {
			continue
		}
		any = true
		if g.Part.Type != keyval.RangePartition {
			return false
		}
	}
	return any
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
