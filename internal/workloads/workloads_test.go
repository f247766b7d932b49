package workloads

import (
	"sort"
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/optimizer"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
)

// small returns build options that keep integration tests quick.
func small() Options { return Options{SizeFactor: 0.25, Seed: 42} }

func TestRegistry(t *testing.T) {
	abbrs := Abbrs()
	if len(abbrs) != 8 {
		t.Fatalf("expected 8 workloads, got %d", len(abbrs))
	}
	want := []string{"IR", "SN", "LA", "WG", "BA", "BR", "PJ", "US"}
	for i, a := range want {
		if abbrs[i] != a {
			t.Errorf("position %d: %s, want %s (Table 1 order)", i, abbrs[i], a)
		}
	}
	if Title("IR") != "Information Retrieval" || PaperGB("BA") != 550 {
		t.Error("metadata lookup wrong")
	}
	if Title("nope") != "" || PaperGB("nope") != 0 {
		t.Error("unknown abbr should yield zero values")
	}
	if _, err := Build("nope", Options{}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func sinksOf(t *testing.T, w *wf.Workflow, dfs *mrsim.DFS) map[string][]keyval.Pair {
	t.Helper()
	out := map[string][]keyval.Pair{}
	for _, d := range w.SinkDatasets() {
		stored, ok := dfs.Get(d.ID)
		if !ok {
			t.Fatalf("sink %s missing", d.ID)
		}
		pairs := stored.AllPairs()
		sort.Slice(pairs, func(i, j int) bool {
			if c := keyval.Compare(pairs[i].Key, pairs[j].Key); c != 0 {
				return c < 0
			}
			return keyval.Compare(pairs[i].Value, pairs[j].Value) < 0
		})
		out[d.ID] = pairs
	}
	return out
}

func TestAllWorkloadsBuildAndRun(t *testing.T) {
	for _, abbr := range Abbrs() {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			wl, err := Build(abbr, small())
			if err != nil {
				t.Fatal(err)
			}
			if wl.Cluster.VirtualScale <= 1 {
				t.Errorf("virtual scale %v should exceed 1 (paper-sized data)", wl.Cluster.VirtualScale)
			}
			rep, err := mrsim.NewEngine(wl.Cluster, wl.DFS.Clone()).RunWorkflow(wl.Workflow)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Makespan <= 0 {
				t.Error("zero makespan")
			}
			dfs := wl.DFS.Clone()
			if _, err := mrsim.NewEngine(wl.Cluster, dfs).RunWorkflow(wl.Workflow); err != nil {
				t.Fatal(err)
			}
			sinks := sinksOf(t, wl.Workflow, dfs)
			if len(sinks) == 0 {
				t.Fatal("workflow has no sinks")
			}
			for ds, pairs := range sinks {
				if len(pairs) == 0 {
					t.Errorf("sink %s is empty", ds)
				}
			}
		})
	}
}

// TestOptimizedPlansEquivalent is the repository's central integration
// test: for every evaluation workflow, profile, optimize with full Stubby,
// and verify the optimized plan produces byte-identical sink datasets.
func TestOptimizedPlansEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("integration: optimize+run every workflow; skipped in -short")
	}
	for _, abbr := range Abbrs() {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			wl, err := Build(abbr, small())
			if err != nil {
				t.Fatal(err)
			}
			if err := profile.NewProfiler(wl.Cluster, 0.5, 7).Annotate(wl.Workflow, wl.DFS); err != nil {
				t.Fatal(err)
			}
			res, err := optimizer.New(wl.Cluster, optimizer.Options{Seed: 1}).Optimize(wl.Workflow)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Plan.Jobs) > len(wl.Workflow.Jobs) {
				t.Errorf("optimization grew the plan: %d -> %d jobs",
					len(wl.Workflow.Jobs), len(res.Plan.Jobs))
			}
			dfsA := wl.DFS.Clone()
			if _, err := mrsim.NewEngine(wl.Cluster, dfsA).RunWorkflow(wl.Workflow); err != nil {
				t.Fatal(err)
			}
			dfsB := wl.DFS.Clone()
			if _, err := mrsim.NewEngine(wl.Cluster, dfsB).RunWorkflow(res.Plan); err != nil {
				t.Fatalf("optimized plan failed to run: %v\n%s", err, res.Plan.Summary())
			}
			a := sinksOf(t, wl.Workflow, dfsA)
			b := sinksOf(t, res.Plan, dfsB)
			if len(a) != len(b) {
				t.Fatalf("sink sets differ: %d vs %d", len(a), len(b))
			}
			for ds, pa := range a {
				pb, ok := b[ds]
				if !ok {
					t.Fatalf("sink %s missing from optimized plan", ds)
				}
				if len(pa) != len(pb) {
					t.Fatalf("sink %s: %d vs %d records", ds, len(pa), len(pb))
				}
				for i := range pa {
					if keyval.Compare(pa[i].Key, pb[i].Key) != 0 ||
						keyval.Compare(pa[i].Value, pb[i].Value) != 0 {
						t.Fatalf("sink %s differs at record %d", ds, i)
					}
				}
			}
		})
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a, err := Build("SN", small())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("SN", small())
	if err != nil {
		t.Fatal(err)
	}
	sa, _ := a.DFS.Get("pubs")
	sb, _ := b.DFS.Get("pubs")
	if sa.Records() != sb.Records() || sa.Bytes() != sb.Bytes() {
		t.Error("generators not deterministic")
	}
	c, err := Build("SN", Options{SizeFactor: 0.25, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := c.DFS.Get("pubs")
	if sc.Bytes() == sa.Bytes() {
		t.Error("different seed produced identical data")
	}
}

func TestExpectedPackingOpportunities(t *testing.T) {
	if testing.Short() {
		t.Skip("integration: optimizer decisions per workflow; skipped in -short")
	}
	// Structural spot checks tying the workloads to the transformations
	// they were designed to exercise.
	cases := []struct {
		abbr     string
		origJobs int
		maxJobs  int // after full Stubby
	}{
		{"IR", 3, 2}, // J2 packs into J1
		{"SN", 4, 3}, // J2 (pair creation) packs into J1
		{"LA", 4, 3}, // J3 packs into J2
		{"BR", 7, 4}, // replicate + two rollup packs + horizontal
		{"BA", 4, 3}, // join cascade packs
		{"WG", 4, 4}, // nothing structural applies
	}
	for _, c := range cases {
		c := c
		t.Run(c.abbr, func(t *testing.T) {
			wl, err := Build(c.abbr, small())
			if err != nil {
				t.Fatal(err)
			}
			if len(wl.Workflow.Jobs) != c.origJobs {
				t.Fatalf("original plan has %d jobs, want %d", len(wl.Workflow.Jobs), c.origJobs)
			}
			if err := profile.NewProfiler(wl.Cluster, 0.5, 7).Annotate(wl.Workflow, wl.DFS); err != nil {
				t.Fatal(err)
			}
			res, err := optimizer.New(wl.Cluster, optimizer.Options{Seed: 1}).Optimize(wl.Workflow)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Plan.Jobs) > c.maxJobs {
				t.Errorf("optimized plan has %d jobs, expected <= %d:\n%s",
					len(res.Plan.Jobs), c.maxJobs, res.Plan.Summary())
			}
		})
	}
}

func TestUSPartitionPruningChosen(t *testing.T) {
	if testing.Short() {
		t.Skip("integration: partition pruning end to end; skipped in -short")
	}
	wl, err := Build("US", small())
	if err != nil {
		t.Fatal(err)
	}
	if err := profile.NewProfiler(wl.Cluster, 0.5, 7).Annotate(wl.Workflow, wl.DFS); err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.New(wl.Cluster, optimizer.Options{Seed: 1}).Optimize(wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	dfs := wl.DFS.Clone()
	rep, err := mrsim.NewEngine(wl.Cluster, dfs).RunWorkflow(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	pruned := 0
	rangeProducer := false
	for _, jr := range rep.Jobs {
		pruned += jr.PrunedPartitions
	}
	for _, j := range res.Plan.Jobs {
		for _, g := range j.ReduceGroups {
			if g.Part.Type == keyval.RangePartition {
				rangeProducer = true
			}
		}
	}
	if !rangeProducer && pruned == 0 {
		t.Errorf("expected range partitioning + pruning in the US plan:\n%s", res.Plan.Summary())
	}
}
