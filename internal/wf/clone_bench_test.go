package wf_test

import (
	"testing"

	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/trans"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/workloads"
)

var cloneSink *wf.Workflow

// BenchmarkWorkflowClone times one plan clone, which configuration search
// makes per candidate, on BR at lib-search settings with every reduce group
// that admits one range-partitioned, so the clone carries split points.
func BenchmarkWorkflowClone(b *testing.B) {
	wl, err := workloads.Build("BR", workloads.Options{SizeFactor: 0.25, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := profile.NewProfiler(wl.Cluster, 0.5, 1).Annotate(wl.Workflow, wl.DFS); err != nil {
		b.Fatal(err)
	}
	w, ranged := wl.Workflow, 0
	for _, j := range wl.Workflow.Jobs {
		for _, g := range j.ReduceGroups {
			for _, spec := range trans.EnumeratePartitionSpecs(w, j.ID, g.Tag, wl.Cluster.TotalReduceSlots()) {
				if next, err := trans.ApplyPartitionSpec(w, j.ID, g.Tag, spec); err == nil {
					w = next
					ranged++
					break
				}
			}
		}
	}
	if ranged == 0 {
		b.Fatal("no reduce group admits a range partition")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = w.Clone()
	}
}
