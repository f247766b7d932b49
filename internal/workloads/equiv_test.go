package workloads_test

import (
	"testing"

	"github.com/stubby-mr/stubby/internal/baselines"
	"github.com/stubby-mr/stubby/internal/gen"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// TestWorkloadPlannerEquivalence runs every registered planner over every
// paper workload and proves the optimized plans compute the same final
// answers as the unoptimized workflows — executed, not inferred from plan
// shape. The repo's other suites pin plan/cost identity; this one pins
// semantics, through the same oracle the generated-workflow suites use.
func TestWorkloadPlannerEquivalence(t *testing.T) {
	reg := baselines.DefaultRegistry()
	for _, abbr := range workloads.Abbrs() {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			wl, err := workloads.Build(abbr, workloads.Options{SizeFactor: 0.08, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := profile.NewProfiler(wl.Cluster, 0.5, 1).Annotate(wl.Workflow, wl.DFS); err != nil {
				t.Fatal(err)
			}
			s := &gen.Subject{
				Name:     abbr,
				Workflow: wl.Workflow,
				DFS:      wl.DFS,
				Cluster:  wl.Cluster,
				// Several workloads aggregate genuine floating point (TF-IDF
				// weights, averages); combiner and config changes reassociate
				// those sums, so numeric fields compare under a relative
				// tolerance while ints and strings stay exact.
				FloatTolerance: 1e-9,
			}
			ref, err := s.Reference()
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range reg.Specs() {
				p := spec.New(wl.Cluster, 1)
				plan, err := p.Plan(wl.Workflow)
				if err != nil {
					t.Errorf("%s on %s: %v", spec.Name, abbr, err)
					continue
				}
				if err := s.CheckPlan(ref, spec.Name, plan); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
