// Package baselines implements the comparator optimizers of the paper's
// evaluation (Section 7): the production Baseline (Pig's rule-based
// multi-query optimization plus rule-of-thumb configuration tuning),
// Starfish (cost-based configuration only), YSmart (rule-based packing that
// minimizes the job count), and MRShare (cost-based horizontal packing with
// rule-based configuration).
package baselines

import (
	"context"
	"fmt"
	"sort"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/optimizer"
	"github.com/stubby-mr/stubby/internal/trans"
	"github.com/stubby-mr/stubby/internal/wf"
)

// Planner is the common interface of all workflow optimizers compared in
// the evaluation.
type Planner interface {
	// Name labels the planner in result tables.
	Name() string
	// Plan returns an optimized copy of the workflow.
	Plan(w *wf.Workflow) (*wf.Workflow, error)
}

// ContextPlanner extends Planner with a cancellable variant. All built-in
// planners implement it; callers holding a plain Planner can type-assert.
type ContextPlanner interface {
	Planner
	// PlanContext is Plan under a context: long cost-based searches stop
	// promptly with ctx.Err() when the context is cancelled.
	PlanContext(ctx context.Context, w *wf.Workflow) (*wf.Workflow, error)
}

// RuleConfig applies rule-of-thumb configuration tuning in place, standing
// in for the "manually-tuned using rules-of-thumb" settings of the paper's
// Baseline (Cloudera's classic Hadoop tuning tips): reducers sized to
// ~90% of the cluster's reduce slots, a large sort buffer and merge
// factor, and the combiner enabled where one exists.
func RuleConfig(w *wf.Workflow, c *mrsim.Cluster) {
	reducers := int(0.9 * float64(c.TotalReduceSlots()))
	if reducers < 1 {
		reducers = 1
	}
	for _, j := range w.Jobs {
		if !j.PinnedReducers {
			j.Config.NumReduceTasks = reducers
		}
		j.Config.SplitSizeMB = 128
		j.Config.SortBufferMB = 200
		j.Config.IOSortFactor = 25
		j.Config.UseCombiner = j.HasCombiner()
		j.Config.CompressMapOutput = false
		j.Config.CompressOutput = false
	}
}

// packAllSameInput repeatedly horizontally packs every set of jobs sharing
// an input dataset, until no packing applies — Pig's unconditional
// multi-query execution rule.
func packAllSameInput(w *wf.Workflow) *wf.Workflow {
	plan := w.Clone()
	for {
		groups := sameInputGroups(plan)
		applied := false
		for _, g := range groups {
			// Horizontal checks its own precondition: an unpackable group
			// is skipped on its error.
			if next, err := trans.Horizontal(plan, g, true); err == nil {
				plan = next
				applied = true
				break
			}
		}
		if !applied {
			return plan
		}
	}
}

// sameInputGroups lists maximal sets of single-input jobs sharing their
// input, deterministically ordered.
func sameInputGroups(w *wf.Workflow) [][]string {
	byInput := map[string][]string{}
	for _, j := range w.Jobs {
		ins := j.Inputs()
		if len(ins) == 1 {
			byInput[ins[0]] = append(byInput[ins[0]], j.ID)
		}
	}
	var inputs []string
	for in, ids := range byInput {
		if len(ids) >= 2 {
			inputs = append(inputs, in)
		}
	}
	sort.Strings(inputs)
	var out [][]string
	for _, in := range inputs {
		ids := byInput[in]
		sort.Strings(ids)
		out = append(out, ids)
	}
	return out
}

// Baseline is the production comparator: Pig's rule-based horizontal
// packing wherever possible, plus rule-of-thumb configurations.
type Baseline struct {
	Cluster *mrsim.Cluster
}

// Name implements Planner.
func (b Baseline) Name() string { return "Baseline" }

// Plan implements Planner.
func (b Baseline) Plan(w *wf.Workflow) (*wf.Workflow, error) {
	plan := packAllSameInput(w)
	RuleConfig(plan, b.Cluster)
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	return plan, nil
}

// PlanContext implements ContextPlanner. Baseline's rule pass is fast, so
// only the entry is checked.
func (b Baseline) PlanContext(ctx context.Context, w *wf.Workflow) (*wf.Workflow, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.Plan(w)
}

// YSmart is the rule-based comparator [11]: it packs vertically and
// horizontally wherever preconditions allow, minimizing the total number of
// jobs regardless of cost, with rule-based configuration settings
// (the paper's enhancement).
type YSmart struct {
	Cluster *mrsim.Cluster
}

// Name implements Planner.
func (y YSmart) Name() string { return "YSmart" }

// Plan implements Planner.
func (y YSmart) Plan(w *wf.Workflow) (*wf.Workflow, error) {
	return y.PlanContext(context.Background(), w)
}

// PlanContext implements ContextPlanner, checking between packing rounds.
func (y YSmart) PlanContext(ctx context.Context, w *wf.Workflow) (*wf.Workflow, error) {
	plan := w.Clone()
	for guard := 0; guard < 4*len(w.Jobs)+8; guard++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if next, ok := ySmartStep(plan); ok {
			plan = next
			continue
		}
		break
	}
	RuleConfig(plan, y.Cluster)
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	return plan, nil
}

// ySmartStep applies the first available job-eliminating transformation:
// inter-job packing (directly removes a job), intra-job packing (enables
// inter), then horizontal packing of same-input siblings.
func ySmartStep(plan *wf.Workflow) (*wf.Workflow, bool) {
	order, err := plan.TopoSort()
	if err != nil {
		return nil, false
	}
	for _, jp := range order {
		for _, jc := range plan.JobConsumers(jp) {
			if next, err := trans.InterVertical(plan, jp.ID, jc.ID); err == nil {
				return next, true
			}
		}
	}
	for _, jc := range order {
		// Only worthwhile for YSmart if it unlocks an inter packing that
		// removes a job; apply and check.
		mid, err := trans.IntraVertical(plan, jc.ID)
		if err != nil {
			continue
		}
		for _, jp := range mid.JobProducers(mid.Job(jc.ID)) {
			if next, err := trans.InterVertical(mid, jp.ID, jc.ID); err == nil {
				return next, true
			}
		}
	}
	for _, g := range sameInputGroups(plan) {
		if next, err := trans.Horizontal(plan, g, true); err == nil {
			return next, true
		}
	}
	return nil, false
}

// CostBased is a cost-based planner: an optimizer search over a selection of
// the transformation table's rows, plus a configuration mode. Full Stubby, its
// one-group variants, Starfish and MRShare differ only in these fields.
type CostBased struct {
	Cluster *mrsim.Cluster
	Seed    int64
	// Label is the planner's display name (default "Stubby").
	Label string
	// Groups and DisablePartition select the rows, as in optimizer.Options.
	Groups           optimizer.Groups
	DisablePartition bool
	// RuleConfigs applies RuleConfig first and keeps those configurations
	// instead of searching them.
	RuleConfigs bool
}

// Starfish is the cost-based configuration-only comparator [8]: it finds
// good configuration parameter settings for each job but misses every
// packing opportunity.
func Starfish(c *mrsim.Cluster, seed int64) CostBased {
	return CostBased{Label: "Starfish", Groups: optimizer.GroupConfigOnly}.bind(c, seed)
}

// MRShare is the cost-based horizontal packing comparator [13]: it decides
// scan sharing with the What-if cost model but applies rule-based
// configurations and considers neither vertical packing nor partition
// function transformations.
func MRShare(c *mrsim.Cluster, seed int64) CostBased {
	return CostBased{Label: "MRShare", Groups: optimizer.GroupHorizontal,
		DisablePartition: true, RuleConfigs: true}.bind(c, seed)
}

// bind returns the selection p as a planner for a cluster and seed.
func (p CostBased) bind(c *mrsim.Cluster, seed int64) CostBased {
	p.Cluster, p.Seed = c, seed
	return p
}

// Name implements Planner.
func (p CostBased) Name() string {
	if p.Label != "" {
		return p.Label
	}
	return "Stubby"
}

// Plan implements Planner.
func (p CostBased) Plan(w *wf.Workflow) (*wf.Workflow, error) {
	return p.PlanContext(context.Background(), w)
}

// PlanContext implements ContextPlanner.
func (p CostBased) PlanContext(ctx context.Context, w *wf.Workflow) (*wf.Workflow, error) {
	res, err := p.Search(ctx, w, optimizer.Options{})
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// Search runs the optimizer with the planner's selection laid over base, so a
// caller that wants the search trace, progress events or a shared estimate
// cache supplies them in base; a Groups restriction in base refines the
// planner's.
func (p CostBased) Search(ctx context.Context, w *wf.Workflow, base optimizer.Options) (*optimizer.Result, error) {
	base.Seed = p.Seed
	if base.Groups == 0 {
		base.Groups = p.Groups
	}
	base.DisablePartition = base.DisablePartition || p.DisablePartition
	if p.RuleConfigs {
		w = w.Clone()
		RuleConfig(w, p.Cluster)
		base.DisableConfigSearch = true
	}
	return optimizer.New(p.Cluster, base).OptimizeContext(ctx, w)
}
