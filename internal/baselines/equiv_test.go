package baselines_test

import (
	"fmt"
	"testing"

	"github.com/stubby-mr/stubby/internal/baselines"
	"github.com/stubby-mr/stubby/internal/gen"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/whatif"
)

// The end-to-end planner equivalence suite: every registered planner, run
// over randomly generated annotated workflows with materialized data, must
// produce a plan that computes the same final answers as the unoptimized
// workflow (Stubby-vs-identity semantic equivalence, checked by actually
// executing both), and full Stubby's estimated cost must not lose to any
// comparator restricted to a subset of its plan space (the cost-dominance
// invariant — a regression here means a transformation group stopped being
// enumerated or the search stopped finding plans it used to find).

// equivSeeds sizes the matrix: equivSeeds workflows x all registered
// planners. The CI acceptance floor is 200 (workflow, planner) pairs.
const equivSeeds = 30

// dominanceSlack is the tolerated relative excess of Stubby's estimated
// cost over a comparator's. Stubby's plan space is a superset of every
// comparator's, but its unit-by-unit greedy search and bounded RRS budget
// are heuristic, so exact dominance is not a theorem; a small slack keeps
// the invariant tight enough to flag real plan-space regressions without
// tripping on search noise.
const dominanceSlack = 1.05

// dominanceBaselines are the comparator optimizers the dominance invariant
// is asserted against. Stubby's own single-group ablations (vertical,
// horizontal) are excluded from the hard check: the optimizer picks each
// unit's subplan by the paper's unit-completion-time metric, so on
// adversarial random DAGs the greedy interaction between the two
// structural phases can leave full Stubby marginally behind one of its
// ablations — expected search behavior, not a plan-space regression. Their
// worst ratio is still computed and logged so drift stays visible.
var dominanceBaselines = []string{"baseline", "starfish", "ysmart", "mrshare"}

func TestGeneratedPlannerEquivalenceAndDominance(t *testing.T) {
	reg := baselines.DefaultRegistry()
	pairs := 0
	worstRatio := 0.0
	for seed := int64(1); seed <= equivSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := gen.Generate(seed, gen.Options{})
			if err := profile.NewProfiler(c.Cluster, 0.5, seed).Annotate(c.Workflow, c.DFS); err != nil {
				t.Fatalf("seed %d: profiling failed: %v", seed, err)
			}
			s := c.Subject()
			ref, err := s.Reference()
			if err != nil {
				t.Fatal(err)
			}
			est := whatif.New(c.Cluster)
			costs := map[string]float64{}
			for _, spec := range reg.Specs() {
				p := spec.New(c.Cluster, seed)
				plan, err := p.Plan(c.Workflow)
				if err != nil {
					t.Errorf("seed %d: planner %s failed: %v", seed, spec.Name, err)
					continue
				}
				if err := s.CheckPlan(ref, spec.Name, plan); err != nil {
					t.Error(err)
					continue
				}
				e, err := est.Estimate(plan)
				if err != nil {
					t.Errorf("seed %d: estimating %s's plan: %v", seed, spec.Name, err)
					continue
				}
				costs[spec.Name] = e.Makespan
				pairs++
			}
			stubby, ok := costs["stubby"]
			if !ok {
				return // already reported above
			}
			for _, spec := range reg.Specs() {
				other, ok := costs[spec.Name]
				if !ok || other <= 0 {
					continue
				}
				if r := stubby / other; r > worstRatio {
					worstRatio = r
				}
			}
			for _, name := range dominanceBaselines {
				other, ok := costs[name]
				if !ok || other <= 0 {
					continue
				}
				if stubby > other*dominanceSlack {
					t.Errorf("seed %d: cost dominance violated: stubby %.3fs > %s %.3fs (x%.3f)\nreproduce with: go test -run 'TestGeneratedPlannerEquivalenceAndDominance/seed%d$' -v ./internal/baselines",
						seed, stubby, name, other, stubby/other, seed)
				}
			}
		})
	}
	t.Logf("equivalence verified over %d (workflow, planner) pairs; worst stubby/comparator cost ratio %.4f", pairs, worstRatio)
	if pairs < 200 {
		t.Errorf("equivalence suite covered only %d pairs, want >= 200", pairs)
	}
}
