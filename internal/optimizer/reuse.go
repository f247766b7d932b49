package optimizer

import (
	"context"

	"github.com/stubby-mr/stubby/internal/trans"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/whatif"
)

// ReuseSource resolves rooted sub-plan fingerprints (wf.SubplanFingerprint)
// to previously materialized results — implemented by catalog.Store. A
// lookup that returns ok reports a result whose records are guaranteed
// identical to what the fingerprinted sub-DAG would produce.
type ReuseSource interface {
	Lookup(fp wf.Fingerprint) (trans.StoredResult, bool)
}

// applyReuse is the ReStore-style pre-pass, run on the input plan when
// Options.ReuseCatalog is set: greedily replace catalog-matched
// rooted sub-DAGs with scans of their stored results, adopting a rewrite
// only when the What-if estimate says scanning beats recomputing. Each
// round fingerprints every candidate intermediate dataset, applies the
// single best strictly-cheaper rewrite, and repeats until no rewrite
// improves the plan (each adoption removes at least one job, so the loop
// terminates). Returns the (possibly) rewritten plan and how many sub-DAGs
// were replaced.
//
// Rewrites are compared within one estimation regime: a candidate whose
// estimate falls back to #jobs costing while the current plan estimates
// fully (or vice versa) is never adopted on that incomparable number.
func (s *Stubby) applyReuse(ctx context.Context, plan *wf.Workflow) (*wf.Workflow, int, error) {
	reused := 0
	h := wf.NewHasher()
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		// Collect applicable rewrites before estimating anything: a plan
		// with no catalog match must cost zero What-if calls, so attaching
		// a (cold or unrelated) catalog never perturbs estimate counters.
		rewrites := ReuseRewrites(plan, h, s.opt.ReuseCatalog.Lookup)
		if len(rewrites) == 0 {
			return plan, reused, nil
		}
		base, err := s.ests[0].Estimate(plan)
		if err != nil {
			return nil, 0, err
		}
		var bestPlan *wf.Workflow
		var bestEst *whatif.Estimate
		for _, rewritten := range rewrites {
			est, err := s.ests[0].Estimate(rewritten)
			if err != nil {
				continue
			}
			if est.Fallback != base.Fallback || est.Makespan >= base.Makespan {
				continue
			}
			if bestEst == nil || est.Makespan < bestEst.Makespan {
				bestPlan, bestEst = rewritten, est
			}
		}
		if bestPlan == nil {
			return plan, reused, nil
		}
		plan = bestPlan
		reused++
	}
}

// ReuseRewrites is the reuse pre-pass's one match rule: for every
// intermediate dataset of plan that has consumers, whose rooted sub-plan
// fingerprint lookup resolves and whose stored result trans.ApplyReuse
// accepts (it checks trans.CanReuse), plan with that sub-DAG replaced by a
// scan of the stored result. It estimates nothing. When it returns none,
// the pre-pass leaves plan as it is, so a search with the catalog returns
// the plan a search without one does. h memoizes fingerprints across calls.
func ReuseRewrites(plan *wf.Workflow, h *wf.Hasher, lookup func(wf.Fingerprint) (trans.StoredResult, bool)) []*wf.Workflow {
	var rewrites []*wf.Workflow
	for _, d := range plan.Datasets {
		if d.Base || len(plan.Consumers(d.ID)) == 0 {
			continue
		}
		fp, ok := h.Subplan(plan, d.ID)
		if !ok {
			continue
		}
		stored, ok := lookup(fp)
		if !ok {
			continue
		}
		if rewritten, err := trans.ApplyReuse(plan, d.ID, stored); err == nil {
			rewrites = append(rewrites, rewritten)
		}
	}
	return rewrites
}
