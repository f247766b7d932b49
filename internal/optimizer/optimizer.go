// Package optimizer implements Stubby's enumeration and search strategy
// (Section 4): a two-phase greedy traversal that generates optimization
// units dynamically in topological sort order, exhaustively enumerates the
// structural transformations applicable within each unit, searches the
// configuration space of each enumerated subplan with Recursive Random
// Search, and retains the subplan with the lowest What-if cost.
package optimizer

import (
	"context"
	"time"

	"github.com/stubby-mr/stubby/internal/event"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/whatif"
)

// Groups selects which transformation groups the optimizer applies
// (Section 4: the Vertical and Horizontal groups both include the partition
// function and configuration transformations).
type Groups int

const (
	// GroupVertical enables intra- and inter-job vertical packing (plus
	// partition and configuration transformations).
	GroupVertical Groups = 1 << iota
	// GroupHorizontal enables horizontal packing (plus partition and
	// configuration transformations).
	GroupHorizontal
	// GroupConfigOnly traverses the workflow applying only configuration
	// transformations — the Starfish comparator's plan space (Section 7.3).
	GroupConfigOnly
	// GroupAll is full Stubby.
	GroupAll = GroupVertical | GroupHorizontal
)

// Options tunes the search.
type Options struct {
	// Groups selects transformation groups (default GroupAll): a filter on
	// the transformation table, keeping the rows of the selected groups.
	Groups Groups
	// RRSEvals bounds configuration-search evaluations per subplan.
	// Zero (the default) sizes the budget adaptively to the number of
	// configuration dimensions, keeping tuning quality comparable across
	// subplans of different shapes.
	RRSEvals int
	// MaxSubplans caps structural enumeration per optimization unit
	// (default 64; the paper observes real units yield only a handful).
	MaxSubplans int
	// Seed drives deterministic search.
	Seed int64
	// KeepSubplans retains every enumerated subplan in the unit reports
	// (used by the Figure 14 deep-dive).
	KeepSubplans bool
	// DisablePartition drops the partition function row from the
	// transformation table (comparators like MRShare do not consider it —
	// Section 7.3).
	DisablePartition bool
	// DisableConfigSearch keeps job configurations as provided instead of
	// searching them (rule-configured comparators).
	DisableConfigSearch bool
	// Custom registers additional structural transformations, extending
	// the optimizer EXODUS-style (Section 1: "Stubby allows new
	// transformations to be added to extend the optimizer's functionality
	// easily"). They become rows of the same table as the built-ins, after
	// them: they take part in both structural phases, compete on estimated
	// cost and are counted in UnitReport.Yield like any other row.
	Custom []Transformation
	// ConfigSearch selects the configuration-search strategy. The default
	// is RRS; SearchRandom degrades to uniform sampling under the same
	// evaluation budget (the ablation of RRS's recursion).
	ConfigSearch SearchStrategy
	// HorizontalFirst reverses the two structural phases, applying the
	// Horizontal group before the Vertical group — the ablation of the
	// paper's ordering argument (Section 4: horizontal packing first can
	// prevent later vertical packing).
	HorizontalFirst bool
	// GlobalUnit optimizes the whole workflow as a single optimization
	// unit instead of traversing dynamically generated units — the
	// ablation of the divide-and-conquer strategy (Section 4.1). Raise
	// MaxSubplans when enabling this on larger workflows.
	GlobalUnit bool
	// Progress receives the search's progress events (nil disables
	// reporting): event.UnitStarted, SubplanEnumerated and BestCostImproved,
	// stamped with the workflow's name. It is called synchronously from the
	// search loop — in enumeration order even when subplan tuning runs in
	// parallel — so it should return quickly. When ReuseCatalog rewrites the
	// plan, the search from the rewritten plan follows the search from the
	// bare plan and numbers its units from 0 again; Result.Units traces
	// whichever of the two searches produced the returned plan.
	Progress func(event.Event)
	// Parallelism is the number of workers that tune a unit's enumerated
	// subplans, each with its own estimator (<=1: one worker, which tunes
	// them in enumeration order). Results are identical at any
	// parallelism: per-subplan seeds derive from structure, and selection
	// replays in enumeration order.
	Parallelism int
	// EstimateCache, when non-nil, memoizes What-if estimates under
	// canonical workflow fingerprints: revisited cost-equivalent plans
	// (duplicate RRS samples, phase-boundary re-estimates, repeated or
	// shared workflows when the cache is shared across optimizers) reuse
	// the cached answer. Caching is transparent — estimates are pure
	// functions of (plan, cluster), so plans and costs are identical with
	// or without it; the differential test suite enforces this.
	EstimateCache *whatif.Cache
	// DisableIncremental selects the reference path: every
	// configuration-search probe re-estimates the whole plan instead of
	// delta-estimating the jobs it affects. Only the differential test and
	// the optimizer benchmark's baseline rows set it, to check and to
	// measure the incremental path against; plans and costs are identical.
	DisableIncremental bool
	// ReuseCatalog, when non-nil, enables the ReStore-style sub-plan reuse
	// pre-pass: rooted sub-DAGs whose fingerprints match a previously
	// materialized result are replaced with scans of the stored output —
	// but only when the What-if estimate says scanning beats recomputing.
	// When the pre-pass rewrites anything, the phases run a second time from
	// the rewritten plan, and its result is kept only when it ends strictly
	// cheaper than the search without the catalog, so reuse is never worse
	// than no reuse. With a nil catalog (the default), or no catalog match,
	// plans are byte-identical to a search without one.
	ReuseCatalog ReuseSource
}

// SearchStrategy selects how configuration transformations are searched.
type SearchStrategy int

const (
	// SearchRRS is Recursive Random Search (the paper's choice).
	SearchRRS SearchStrategy = iota
	// SearchRandom is uniform random sampling with the same budget.
	SearchRandom
)

// Transformation is a structural transformation: the built-ins and the
// user-defined ones of Options.Custom are rows of one table (table.go). A
// user-defined one must be semantics-preserving like them: every proposed
// plan must produce the same results as the input plan, and must only be
// proposed when its preconditions are verifiable from the annotations
// present (the information-spectrum contract).
type Transformation interface {
	// Name labels the transformation in search traces.
	Name() string
	// Apply proposes zero or more rewritten plans. The input plan must not
	// be modified; unitJobs lists the current job IDs of the optimization
	// unit under search, and proposals should restructure only those jobs.
	// Jobs merged by a proposal must union their Origin lists, as the
	// built-in packing transformations do. Invalid proposals are discarded
	// by the optimizer.
	Apply(plan *wf.Workflow, unitJobs []string) []Proposal
}

// Proposal is one plan rewrite offered by a custom Transformation.
type Proposal struct {
	// Plan is the rewritten workflow.
	Plan *wf.Workflow
	// Desc describes this specific rewrite (defaults to the
	// transformation's name in search traces).
	Desc string
}

func (o Options) withDefaults() Options {
	if o.Groups == 0 {
		o.Groups = GroupAll
	}
	if o.Groups&GroupAll != 0 {
		o.Groups &^= GroupConfigOnly // a structural group subsumes the config-only pass
	}
	if o.MaxSubplans <= 0 {
		o.MaxSubplans = 64
	}
	return o
}

// Stubby is the transformation-based workflow optimizer.
type Stubby struct {
	cluster *mrsim.Cluster
	// ests holds one private (not concurrent-safe) estimator per tuning
	// worker, max(1, Parallelism) of them, each answering from the shared
	// estimate cache when one is configured. They live as long as the
	// optimizer, so per-estimator memoization (skew, fingerprints) persists
	// across units and phases. ests[0] also serves the work outside tuning:
	// the reuse pre-pass and the final estimate.
	ests []*whatif.Estimator
	opt  Options
	// table holds the structural transformations this search enumerates.
	table []row
}

// New builds an optimizer for the given cluster.
func New(cluster *mrsim.Cluster, opt Options) *Stubby {
	s := &Stubby{cluster: cluster, opt: opt.withDefaults()}
	s.table = newTable(cluster, s.opt)
	s.ests = make([]*whatif.Estimator, max(1, s.opt.Parallelism))
	for i := range s.ests {
		s.ests[i] = whatif.NewCached(cluster, s.opt.EstimateCache)
	}
	return s
}

// whatIfCounts sums what-if activity across every estimator of the search.
// Only call while no search goroutines are running (between optimizations).
func (s *Stubby) whatIfCounts() whatif.Counts {
	var total whatif.Counts
	for _, e := range s.ests {
		total.Add(e.Counts())
	}
	return total
}

// SubplanReport records one enumerated subplan of a unit.
type SubplanReport struct {
	// Description lists the structural transformations applied.
	Description string
	// Cost is the What-if estimate after configuration search.
	Cost float64
	// Fallback marks #jobs costing.
	Fallback bool
	// Plan is retained under Options.KeepSubplans, with its best
	// configuration applied.
	Plan *wf.Workflow
}

// UnitReport records one optimization unit's search.
type UnitReport struct {
	Phase     string
	Producers []string
	Consumers []string
	Subplans  []SubplanReport
	ChosenIdx int
	// Yield counts, per transformation of the search's table and in its
	// order, what the transformation contributed to this unit.
	Yield []Yield
}

// Yield is one transformation's contribution to a search.
type Yield struct {
	Transformation string
	// Proposed counts the plans its Apply returned, Kept those that survived
	// signature de-duplication and validation to become subplans, and Chosen
	// the steps of chosen subplans that it produced.
	Proposed, Kept, Chosen int
}

// Result is the outcome of optimization.
type Result struct {
	// Plan is the optimized workflow.
	Plan *wf.Workflow
	// EstimatedCost is the What-if estimate of the final plan.
	EstimatedCost float64
	// Units traces the search, in traversal order.
	Units []UnitReport
	// Duration is the optimizer's own (real) running time.
	Duration time.Duration
	// WhatIfCalls is the number of What-if estimate requests the search
	// issued (candidate subplans × configuration samples, plus the final
	// plan estimate). Incremental delta estimates count as requests.
	WhatIfCalls uint64
	// WhatIfComputed is how many of those requests ran the full monolithic
	// estimator. Delta estimates are partial computations and are excluded
	// — their cost shows up in FlowCards; with Options.EstimateCache the
	// difference additionally reflects the work the cache absorbed.
	WhatIfComputed uint64
	// FlowCards is the number of per-job flow computations the search
	// performed — the estimator's expensive unit of work, and the number
	// incremental estimation drives down (a full estimate of an n-job plan
	// costs n cards; a delta estimate costs only the affected cone).
	FlowCards uint64
	// Robustness is the plan's Monte-Carlo makespan distribution under a
	// fault model. The search never sets it: a session configured with
	// stubby.WithRobustness attaches it to the plan it serves (nil when the
	// plan lacks the annotations for cost-based estimation).
	Robustness *whatif.Robustness
	// FromStore marks a result answered from a persistent plan store
	// (stubby.WithPlanStore) instead of a fresh search. Such results carry
	// the stored plan and cost but no search trace, and their What-if
	// counters are zero — no optimizer units ran.
	FromStore bool
	// ReusedSubplans counts the rooted sub-DAGs that Plan scans from
	// catalog-stored results instead of recomputing: zero without
	// Options.ReuseCatalog, and zero when the plan searched without the
	// rewrites was no costlier.
	ReusedSubplans int
}

// Yield sums the units' per-transformation counts, in table order.
func (r *Result) Yield() []Yield {
	var total []Yield
	for _, u := range r.Units {
		for i, y := range u.Yield {
			if i == len(total) {
				total = append(total, Yield{Transformation: y.Transformation})
			}
			total[i].Proposed += y.Proposed
			total[i].Kept += y.Kept
			total[i].Chosen += y.Chosen
		}
	}
	return total
}

// Optimize runs the two-phase search and returns the optimized plan. The
// input plan is not modified.
func (s *Stubby) Optimize(w *wf.Workflow) (*Result, error) {
	return s.OptimizeContext(context.Background(), w)
}

// OptimizeContext is Optimize under a context: cancellation is checked
// between optimization units and between RRS evaluations, so long searches
// stop promptly with ctx.Err(). The input plan is not modified either way.
func (s *Stubby) OptimizeContext(ctx context.Context, w *wf.Workflow) (*Result, error) {
	start := time.Now()
	counts0 := s.whatIfCounts()
	if err := w.Validate(); err != nil {
		return nil, &stubbyerr.Error{Kind: stubbyerr.KindInvalid, Op: "optimize",
			Workflow: w.Name, Err: err}
	}
	res, est, err := s.search(ctx, w.Clone())
	if err != nil {
		return nil, err
	}
	// Reuse is never worse than no reuse: the bare search above is the search
	// without a catalog, and a rewritten plan replaces its result only when
	// its own search ends strictly cheaper in the same costing regime.
	if s.opt.ReuseCatalog != nil {
		rewritten, reused, err := s.applyReuse(ctx, w.Clone())
		if err != nil {
			return nil, err
		}
		if reused > 0 {
			rres, rest, err := s.search(ctx, rewritten)
			if err != nil {
				return nil, err
			}
			if rest.Fallback == est.Fallback && rest.Makespan < est.Makespan {
				res, est = rres, rest
				res.ReusedSubplans = reused
			}
		}
	}
	res.Duration = time.Since(start)
	counts1 := s.whatIfCounts()
	res.WhatIfCalls = counts1.Requests - counts0.Requests
	res.WhatIfComputed = counts1.Computed - counts0.Computed
	res.FlowCards = counts1.FlowCards - counts0.FlowCards
	return res, nil
}

// search runs the structural and configuration phases over plan, which it
// owns, and estimates the final plan. Its units are numbered from 0, so the
// per-subplan seeds, and with them the plan, do not depend on any search
// that ran before it.
func (s *Stubby) search(ctx context.Context, plan *wf.Workflow) (*Result, *whatif.Estimate, error) {
	res := &Result{}
	phases := []phaseSpec{{"vertical", GroupVertical}, {"horizontal", GroupHorizontal}, {"config", GroupConfigOnly}}
	if s.opt.HorizontalFirst {
		phases[0], phases[1] = phases[1], phases[0]
	}
	var err error
	for _, ph := range phases {
		if ph.groups&s.opt.Groups == 0 {
			continue
		}
		if plan, err = s.traverse(ctx, plan, ph, res); err != nil {
			return nil, nil, err
		}
	}
	est, err := s.ests[0].Estimate(plan)
	if err != nil {
		return nil, nil, err
	}
	res.Plan, res.EstimatedCost = plan, est.Makespan
	return res, est, nil
}

// phaseSpec is one traversal pass: it applies the table rows of its groups.
// No row belongs to GroupConfigOnly, so the "config" pass only searches
// configurations.
type phaseSpec struct {
	name   string
	groups Groups
}

// traverse walks the workflow in topological order, generating optimization
// units dynamically (Section 4.1) and optimizing each (Section 4.2). Each
// unit holds the current frontier (concurrently-runnable producer jobs) and
// every job consuming their outputs; the next frontier is wherever those
// consumers ended up after the unit's transformations (Figure 9).
func (s *Stubby) traverse(ctx context.Context, plan *wf.Workflow, ph phaseSpec, res *Result) (*wf.Workflow, error) {
	frontier := initialFrontier(plan)
	if s.opt.GlobalUnit {
		// Every job is a producer of the one unit, which leaves no consumers
		// and so ends the walk after it.
		frontier = nil
		for _, j := range plan.Jobs {
			frontier = append(frontier, j.ID)
		}
	}
	// Each unit advances the frontier by at least one level of the plan, so
	// a phase needs at most one unit per job. The bound, fixed before the
	// walk, ends a phase whose frontier cycles instead — which a custom
	// transformation breaking the Origin contract can cause.
	maxUnits := len(plan.Jobs) + 4
	for iter := 0; len(frontier) > 0 && iter < maxUnits; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		consumers := unitConsumers(plan, frontier)
		unit := append(append([]string{}, frontier...), consumers...)
		var consOrigins []string
		for _, id := range consumers {
			consOrigins = append(consOrigins, plan.Job(id).Origin...)
		}
		newPlan, report, err := s.optimizeUnit(ctx, plan, unit, ph, len(res.Units))
		if err != nil {
			return nil, err
		}
		report.Producers = frontier
		report.Consumers = consumers
		res.Units = append(res.Units, *report)
		plan = newPlan
		if len(consumers) == 0 {
			break
		}
		frontier = jobsContainingOrigins(plan, consOrigins)
	}
	return plan, nil
}

// initialFrontier returns jobs with no producing jobs, in plan order.
func initialFrontier(plan *wf.Workflow) []string {
	var out []string
	for _, j := range plan.Jobs {
		if len(plan.JobProducers(j)) == 0 {
			out = append(out, j.ID)
		}
	}
	return out
}

// unitConsumers returns the jobs consuming the frontier's outputs (the
// unit's consumer set), excluding frontier members themselves.
func unitConsumers(plan *wf.Workflow, frontier []string) []string {
	inFrontier := map[string]bool{}
	for _, id := range frontier {
		inFrontier[id] = true
	}
	var out []string
	seen := map[string]bool{}
	for _, id := range frontier {
		for _, jc := range plan.JobConsumers(plan.Job(id)) {
			if seen[jc.ID] || inFrontier[jc.ID] {
				continue
			}
			seen[jc.ID] = true
			out = append(out, jc.ID)
		}
	}
	return out
}

// jobsContainingOrigins returns current jobs holding any of the given
// original job IDs.
func jobsContainingOrigins(plan *wf.Workflow, origins []string) []string {
	want := map[string]bool{}
	for _, o := range origins {
		want[o] = true
	}
	var out []string
	for _, j := range plan.Jobs {
		for _, o := range j.Origin {
			if want[o] {
				out = append(out, j.ID)
				break
			}
		}
	}
	return out
}
