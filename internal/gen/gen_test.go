package gen

import (
	"strings"
	"testing"

	"github.com/stubby-mr/stubby/internal/wf"
)

// TestGenerateDeterministic: the same seed must yield byte-identical
// descriptors (structure, data, annotations) — the property the committed
// corpus and every seed an oracle failure prints depend on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		a := Generate(seed, Options{})
		b := Generate(seed, Options{})
		if a.Descriptor() != b.Descriptor() {
			t.Fatalf("seed %d: descriptors differ between identical generations", seed)
		}
	}
}

// TestGenerateValidAndRunnable: every generated workflow validates, and
// the reference plan executes on its materialized data. Re-running the
// reference must reproduce identical canonical outputs (the engine itself
// must be deterministic, or the oracle is meaningless).
func TestGenerateValidAndRunnable(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		c := Generate(seed, Options{})
		if err := c.Workflow.Validate(); err != nil {
			t.Fatalf("seed %d: invalid workflow: %v", seed, err)
		}
		s := c.Subject()
		ref, err := s.Reference()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(ref) == 0 {
			t.Fatalf("seed %d: no sink outputs", seed)
		}
		if err := s.CheckPlan(ref, "identity-rerun", c.Workflow); err != nil {
			t.Fatalf("seed %d: engine nondeterminism: %v", seed, err)
		}
	}
}

// TestGenerateSpansPlanSpace: across a modest seed range the generator
// must exercise the whole annotated plan space the transformations
// dispatch on — multi-input jobs, shared inputs, map-only jobs, reduce
// variety, combiners, filters, range and hash partitioning, skew, and
// every ops stage family. This is the guard against the generator
// silently narrowing until the equivalence suite tests nothing.
func TestGenerateSpansPlanSpace(t *testing.T) {
	hits := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		c := Generate(seed, Options{})
		for _, j := range c.Workflow.Jobs {
			if len(j.MapBranches) > 1 {
				hits["multi-branch"]++
			}
			if j.MapOnly() {
				hits["map-only"]++
			} else {
				hits["grouped"]++
			}
			for _, g := range j.ReduceGroups {
				if g.Combiner != nil {
					hits["combiner"]++
				}
				if g.Part.Type == 1 { // keyval.RangePartition
					hits["range-part"]++
				}
				if g.Part.KeyFields != nil {
					hits["part-subset"]++
				}
				if g.Part.SortFields != nil {
					hits["sort-perm"]++
				}
				for _, st := range g.Stages {
					hits["stage:"+stagePrefix(st.Name)]++
				}
			}
			for _, br := range j.MapBranches {
				if br.Filter != nil {
					hits["filter"]++
				}
				for _, st := range br.Stages {
					hits["stage:"+stagePrefix(st.Name)]++
				}
			}
		}
		for _, d := range c.Workflow.Datasets {
			if len(c.Workflow.Consumers(d.ID)) > 1 {
				hits["fan-out"]++
			}
			if d.Base && d.Layout.PartType == 1 && len(d.Layout.PartFields) > 0 {
				hits["base-range"]++
			}
			if d.Base && d.Layout.Compressed {
				hits["base-compressed"]++
			}
		}
		if len(c.Canon) == 0 {
			t.Fatalf("seed %d: no canon specs for sinks", seed)
		}
	}
	for _, want := range []string{
		"multi-branch", "map-only", "grouped", "combiner", "range-part",
		"part-subset", "sort-perm", "filter", "fan-out", "base-range",
		"base-compressed",
		"stage:M", "stage:R", "stage:F", "stage:J", "stage:L", "stage:G",
	} {
		if hits[want] == 0 {
			t.Errorf("plan-space feature %q never generated across 60 seeds (hits: %v)", want, hits)
		}
	}
}

func stagePrefix(name string) string {
	return strings.TrimRight(name, "0123456789")
}

// TestGenerateOptionsBounds: job-count options are honored.
func TestGenerateOptionsBounds(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		c := Generate(seed, Options{MinJobs: 4, MaxJobs: 5, Records: 120})
		n := len(c.Workflow.Jobs)
		// chainAgg may overshoot the target by one job.
		if n < 4 || n > 6 {
			t.Fatalf("seed %d: %d jobs outside [4,6]", seed, n)
		}
	}
}

// TestSinkDatasetsSurviveOptimizationShapes: sinks must be exactly the
// datasets with a producer and no consumer, and each one must carry a
// schema annotation (the oracle keys on them).
func TestGenerateSinks(t *testing.T) {
	c := Generate(7, Options{})
	sinks := c.Workflow.SinkDatasets()
	if len(sinks) == 0 {
		t.Fatal("no sinks")
	}
	for _, d := range sinks {
		if _, ok := c.Canon[d.ID]; !ok {
			t.Errorf("sink %s has no canon spec", d.ID)
		}
		if c.Workflow.Producer(d.ID) == nil {
			t.Errorf("sink %s has no producer", d.ID)
		}
	}
	_ = wf.Workflow{}
}
