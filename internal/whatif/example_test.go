package whatif_test

import (
	"fmt"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/whatif"
)

// ExampleEstimator_Prepare shows the incremental estimation workflow the
// optimizer's configuration search uses: Prepare once for the set of jobs a
// search may reconfigure, then mutate those jobs' configurations in place
// and re-estimate cheaply. Estimates are bit-identical to the monolithic
// path; only the amount of per-job flow work differs (the Counts deltas).
func ExampleEstimator_Prepare() {
	// A profiled two-job aggregation chain over synthetic data.
	pairs := make([]keyval.Pair, 5000)
	for i := range pairs {
		pairs[i] = keyval.Pair{Key: keyval.T(int64(i % 400)), Value: keyval.T(int64(1))}
	}
	dfs := mrsim.NewDFS()
	if err := dfs.Ingest("in", pairs, mrsim.IngestSpec{
		NumPartitions: 8,
		KeyFields:     []string{"k"},
		Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}},
	}); err != nil {
		panic(err)
	}
	sum := func(key keyval.Tuple, values []keyval.Tuple, emit wf.Emit) {
		var s int64
		for _, v := range values {
			s += v[0].(int64)
		}
		emit(key, keyval.T(s))
	}
	job := func(id, in, out string) *wf.Job {
		return &wf.Job{
			ID: id, Config: wf.DefaultConfig(), Origin: []string{id},
			MapBranches: []wf.MapBranch{{Tag: 0, Input: in,
				Stages: []wf.Stage{wf.MapStage("M_"+id, func(k, v keyval.Tuple, emit wf.Emit) { emit(k, v) }, 1e-6)}}},
			ReduceGroups: []wf.ReduceGroup{{Tag: 0, Output: out,
				Stages: []wf.Stage{wf.ReduceStage("R_"+id, sum, nil, 1e-6)}}},
		}
	}
	w := &wf.Workflow{
		Name: "chain",
		Jobs: []*wf.Job{job("J1", "in", "mid"), job("J2", "mid", "out")},
		Datasets: []*wf.Dataset{
			{ID: "in", Base: true, KeyFields: []string{"k"}},
			{ID: "mid"}, {ID: "out"},
		},
	}
	cluster := mrsim.DefaultCluster()
	if err := profile.NewProfiler(cluster, 1.0, 3).Annotate(w, dfs); err != nil {
		panic(err)
	}

	// Prepare for probes that reconfigure only J2: J1 is the prefix, paid
	// once. Each probe then recomputes flow for J2 alone. Close hands the
	// probes' card memo back to est for its next Prepare.
	est := whatif.New(cluster)
	prep, err := est.Prepare(w, []string{"J2"})
	if err != nil {
		panic(err)
	}
	defer prep.Close()
	mono := whatif.New(cluster)
	identical := true
	for _, reducers := range []int{2, 8, 32} {
		w.Job("J2").Config.NumReduceTasks = reducers
		delta, err := prep.Estimate()
		if err != nil {
			panic(err)
		}
		full, err := mono.Estimate(w)
		if err != nil {
			panic(err)
		}
		identical = identical && delta.Makespan == full.Makespan
	}
	ic, mc := est.Counts(), mono.Counts()
	fmt.Printf("bit-identical makespans: %v\n", identical)
	fmt.Printf("incremental: %d requests, %d full computations, %d flow cards\n",
		ic.Requests, ic.Computed, ic.FlowCards)
	fmt.Printf("monolithic:  %d requests, %d full computations, %d flow cards\n",
		mc.Requests, mc.Computed, mc.FlowCards)
	// Output:
	// bit-identical makespans: true
	// incremental: 3 requests, 0 full computations, 4 flow cards
	// monolithic:  3 requests, 3 full computations, 6 flow cards
}
