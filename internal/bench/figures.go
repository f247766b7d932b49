package bench

import (
	"math/rand"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/trans"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// ---------------------------------------------------------------- Table 1 --

// Table1Row is one workload inventory line.
type Table1Row struct {
	Abbr, Title string
	PaperGB     float64
	// Records/Partitions are the materialized base-data figures; VirtualGB
	// is what they represent under the workload's cluster scale.
	Records    int64
	Partitions int
	VirtualGB  float64
	Jobs       int
}

// Table1 regenerates the workload inventory (paper Table 1).
func (h *Harness) Table1() ([]Table1Row, error) {
	var out []Table1Row
	for _, abbr := range workloads.Abbrs() {
		wl, err := h.workload(abbr)
		if err != nil {
			return nil, err
		}
		var records int64
		var bytes float64
		parts := 0
		for _, id := range wl.DFS.IDs() {
			stored, _ := wl.DFS.Get(id)
			records += stored.Records()
			bytes += float64(stored.Bytes())
			parts += len(stored.Parts)
		}
		out = append(out, Table1Row{
			Abbr: abbr, Title: wl.Title, PaperGB: wl.PaperGB,
			Records: records, Partitions: parts,
			VirtualGB: bytes * wl.Cluster.VirtualScale / 1e9,
			Jobs:      len(wl.Workflow.Jobs),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------- Figure 5 --

// Fig5Row is one bar of Figure 5: the speedup of applying a packing
// transformation relative to not applying it, for one data regime.
type Fig5Row struct {
	Transformation string // "intra-vertical" or "horizontal"
	Case           string // "improvement" or "degradation"
	Unpacked       float64
	Packed         float64
	Speedup        float64 // Unpacked / Packed
}

// Figure5 reproduces the motivation experiment: vertical and horizontal
// packing each shown in a regime where they help and one where they hurt
// (Section 3.1/3.3, Figure 5).
func (h *Harness) Figure5() ([]Fig5Row, error) {
	cases := []struct {
		transformation, name string
		run                  func() (unpacked, packed float64, err error)
	}{
		// Intra-job vertical packing on a none-to-one subgraph. The input
		// layout satisfies the consumer's grouping either way; packing
		// eliminates the shuffle but pins map-side parallelism to the input
		// partition count.
		// Improvement: plenty of pre-sorted partitions -> aligned map tasks
		// still fill the cluster and the whole shuffle disappears.
		{"intra-vertical", "improvement", func() (float64, float64, error) { return h.fig5Vertical(120, 0.5e-6) }},
		// Degradation: few coarse partitions -> the packed plan concentrates
		// all compute on a handful of aligned map tasks while the unpacked
		// plan fans out over the whole cluster.
		{"intra-vertical", "degradation", func() (float64, float64, error) { return h.fig5Vertical(16, 0.5e-6) }},
		// Horizontal packing of two same-input aggregates.
		// Improvement: a very large scan-bound input is read once not twice.
		{"horizontal", "improvement", func() (float64, float64, error) { return h.fig5Horizontal(60000, 0.3e-6, 500) }},
		// Degradation: small compute-bound jobs the cluster could have run
		// concurrently (the Post-processing Jobs situation).
		{"horizontal", "degradation", func() (float64, float64, error) { return h.fig5Horizontal(8000, 30e-6, 4) }},
	}
	var out []Fig5Row
	for _, c := range cases {
		un, packed, err := c.run()
		if err != nil {
			return nil, err
		}
		out = append(out, Fig5Row{c.transformation, c.name, un, packed, un / packed})
	}
	return out, nil
}

func fig5Cluster(gb float64, bytes float64) *mrsim.Cluster {
	c := mrsim.DefaultCluster()
	if bytes > 0 {
		c.VirtualScale = gb * 1e9 / bytes
	}
	return c
}

// fig5Vertical builds base(partitioned+sorted on k) -> J(group-sum on k)
// and times the job with and without intra-job vertical packing.
func (h *Harness) fig5Vertical(parts int, cpu float64) (unpacked, packed float64, err error) {
	rng := rand.New(rand.NewSource(h.cfg.Seed ^ 0xf16))
	n := int(float64(40000) * h.cfg.SizeFactor * 4)
	pairs := make([]keyval.Pair, n)
	for i := range pairs {
		pairs[i] = keyval.Pair{Key: keyval.T(int64(rng.Intn(n / 4))), Value: keyval.T(rng.Float64())}
	}
	dfs := mrsim.NewDFS()
	if err := dfs.Ingest("base", pairs, mrsim.IngestSpec{
		NumPartitions: parts,
		KeyFields:     []string{"k"},
		Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}, SortFields: []string{"k"}},
	}); err != nil {
		return 0, 0, err
	}
	sum := wf.ReduceStage("R", func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
		var s float64
		for _, v := range vs {
			s += v[0].(float64)
		}
		emit(k, keyval.T(s))
	}, nil, cpu)
	job := &wf.Job{
		ID: "J", Config: wf.DefaultConfig(), Origin: []string{"J"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "base",
			Stages: []wf.Stage{wf.MapStage("M", func(k, v keyval.Tuple, emit wf.Emit) { emit(k, v) }, cpu)},
			KeyIn:  []string{"k"}, ValIn: []string{"v"},
			KeyOut: []string{"k"}, ValOut: []string{"v"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "out",
			Stages: []wf.Stage{sum},
			KeyIn:  []string{"k"}, ValIn: []string{"v"},
			KeyOut: []string{"k"}, ValOut: []string{"sum"},
		}},
	}
	w := &wf.Workflow{
		Name: "fig5v",
		Jobs: []*wf.Job{job},
		Datasets: []*wf.Dataset{
			{ID: "base", Base: true, KeyFields: []string{"k"}, ValueFields: []string{"v"},
				Layout: wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}, SortFields: []string{"k"}}},
			{ID: "out"},
		},
	}
	cluster := fig5Cluster(100, float64(keyval.PairsSize(pairs)))
	// Tune the unpacked plan's reducer count to a sensible production
	// setting so the comparison is fair.
	w.Job("J").Config.NumReduceTasks = cluster.TotalReduceSlots() * 9 / 10
	packedPlan, err := trans.IntraVertical(w, "J")
	if err != nil {
		return 0, 0, err
	}
	return runBoth(cluster, dfs, w, packedPlan)
}

// runBoth times a plan and its packed rewrite, each over its own copy of the
// data.
func runBoth(cluster *mrsim.Cluster, dfs *mrsim.DFS, plan, packedPlan *wf.Workflow) (unpacked, packed float64, err error) {
	wl := &workloads.Workload{Cluster: cluster, DFS: dfs}
	un, err := runPlan(wl, plan)
	if err != nil {
		return 0, 0, err
	}
	pk, err := runPlan(wl, packedPlan)
	if err != nil {
		return 0, 0, err
	}
	return un.Makespan, pk.Makespan, nil
}

// fig5Horizontal builds base -> {A, B} (two filter+group aggregates) and
// times them separately versus horizontally packed.
func (h *Harness) fig5Horizontal(records int, cpu float64, gb float64) (unpacked, packed float64, err error) {
	rng := rand.New(rand.NewSource(h.cfg.Seed ^ 0xf17))
	pairs := make([]keyval.Pair, records)
	for i := range pairs {
		pairs[i] = keyval.Pair{Key: keyval.T(int64(rng.Intn(500))), Value: keyval.T(rng.Float64(), rng.Float64())}
	}
	dfs := mrsim.NewDFS()
	if err := dfs.Ingest("base", pairs, mrsim.IngestSpec{
		NumPartitions: 12,
		KeyFields:     []string{"k"},
		Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}},
	}); err != nil {
		return 0, 0, err
	}
	agg := func(id, out string, idx int) *wf.Job {
		// Filtering consumers (the paper's "filtering, grouping, and
		// aggregation"): each keeps a disjoint ~5% slice, so the scan
		// dominates and sharing it is the prize.
		lo := int64(idx * 25)
		hi := lo + 25
		return &wf.Job{
			ID: id, Config: wf.DefaultConfig(), Origin: []string{id},
			MapBranches: []wf.MapBranch{{
				Tag: 0, Input: "base",
				Stages: []wf.Stage{wf.MapStage("M_"+id, func(k, v keyval.Tuple, emit wf.Emit) {
					if x := k[0].(int64); x >= lo && x < hi {
						emit(k, keyval.T(v[idx]))
					}
				}, cpu)},
				KeyIn: []string{"k"}, ValIn: []string{"x", "y"},
				KeyOut: []string{"k"}, ValOut: []string{"v"},
			}},
			ReduceGroups: []wf.ReduceGroup{{
				Tag: 0, Output: out,
				Stages: []wf.Stage{wf.ReduceStage("R_"+id, func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
					var s float64
					for _, v := range vs {
						s += v[0].(float64)
					}
					emit(k, keyval.T(s/float64(len(vs))))
				}, nil, cpu)},
				KeyIn: []string{"k"}, ValIn: []string{"v"},
				KeyOut: []string{"k"}, ValOut: []string{"avg"},
			}},
		}
	}
	w := &wf.Workflow{
		Name: "fig5h",
		Jobs: []*wf.Job{agg("A", "outA", 0), agg("B", "outB", 1)},
		Datasets: []*wf.Dataset{
			{ID: "base", Base: true, KeyFields: []string{"k"}, ValueFields: []string{"x", "y"}},
			{ID: "outA"}, {ID: "outB"},
		},
	}
	cluster := fig5Cluster(gb, float64(keyval.PairsSize(pairs)))
	for _, j := range w.Jobs {
		j.Config.NumReduceTasks = cluster.TotalReduceSlots() / 4
	}
	packedPlan, err := trans.Horizontal(w, []string{"A", "B"}, true)
	if err != nil {
		return 0, 0, err
	}
	// Give the packed job the combined reducer budget so the comparison
	// isolates the packing decision, not a reducer-count artifact.
	packedPlan.Jobs[0].Config.NumReduceTasks = cluster.TotalReduceSlots() / 2
	return runBoth(cluster, dfs, w, packedPlan)
}
