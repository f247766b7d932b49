package profile

import (
	"math"
	"math/rand"
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/wf"
)

func passMap(key, value keyval.Tuple, emit wf.Emit) { emit(key, value) }

func sumReduce(key keyval.Tuple, values []keyval.Tuple, emit wf.Emit) {
	var s int64
	for _, v := range values {
		s += v[0].(int64)
	}
	emit(key, keyval.T(s))
}

func halfMap(key, value keyval.Tuple, emit wf.Emit) {
	if key[0].(int64)%2 == 0 {
		emit(key, value)
	}
}

func genPairs(n, card int, seed int64) []keyval.Pair {
	r := rand.New(rand.NewSource(seed))
	out := make([]keyval.Pair, n)
	for i := range out {
		out[i] = keyval.Pair{Key: keyval.T(int64(r.Intn(card))), Value: keyval.T(int64(1))}
	}
	return out
}

func testWorkflowAndDFS(t *testing.T) (*wf.Workflow, *mrsim.DFS, []keyval.Pair) {
	t.Helper()
	pairs := genPairs(8000, 40, 1)
	dfs := mrsim.NewDFS()
	err := dfs.Ingest("in", pairs, mrsim.IngestSpec{
		NumPartitions: 6,
		KeyFields:     []string{"k"},
		Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	job := &wf.Job{
		ID: "J1", Config: wf.DefaultConfig(), Origin: []string{"J1"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "in",
			Stages: []wf.Stage{wf.MapStage("half", halfMap, 2e-6)},
			KeyIn:  []string{"k"}, KeyOut: []string{"k"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "out",
			Stages: []wf.Stage{wf.ReduceStage("sum", sumReduce, nil, 3e-6)},
			KeyIn:  []string{"k"}, KeyOut: []string{"k"},
		}},
	}
	w := &wf.Workflow{
		Name: "p",
		Jobs: []*wf.Job{job},
		Datasets: []*wf.Dataset{
			{ID: "in", Base: true, KeyFields: []string{"k"}, ValueFields: []string{"v"}},
			{ID: "out"},
		},
	}
	return w, dfs, pairs
}

func TestAnnotateFullFraction(t *testing.T) {
	w, dfs, pairs := testWorkflowAndDFS(t)
	p := NewProfiler(mrsim.DefaultCluster(), 1.0, 7)
	if err := p.Annotate(w, dfs); err != nil {
		t.Fatal(err)
	}
	if !HasFullProfiles(w) {
		t.Fatal("profiles missing after Annotate")
	}
	job := w.Job("J1")
	mp := job.Profile.MapProfile(job.MapBranches[0])
	if mp == nil {
		t.Fatal("map profile missing")
	}
	// halfMap keeps even keys only; with keys uniform over [0,40) the
	// selectivity is close to 0.5 and exact at fraction 1.0.
	var kept int
	for _, pr := range pairs {
		if pr.Key[0].(int64)%2 == 0 {
			kept++
		}
	}
	want := float64(kept) / float64(len(pairs))
	if math.Abs(mp.Selectivity-want) > 1e-9 {
		t.Errorf("map selectivity = %v, want %v", mp.Selectivity, want)
	}
	if math.Abs(mp.CPUPerRecord-2e-6) > 1e-12 {
		t.Errorf("map CPU/record = %v, want 2e-6", mp.CPUPerRecord)
	}
	rp := job.Profile.ReduceProfile(0)
	if rp == nil {
		t.Fatal("reduce profile missing")
	}
	// 20 even keys -> 20 groups out of `kept` records.
	if math.Abs(rp.GroupsPerRecord-20/float64(kept)) > 1e-9 {
		t.Errorf("groups/record = %v", rp.GroupsPerRecord)
	}
	if rp.Selectivity <= 0 || rp.Selectivity > 1 {
		t.Errorf("reduce selectivity = %v", rp.Selectivity)
	}
	if len(mp.KeySample) == 0 {
		t.Error("map key sample empty")
	}
	for _, k := range mp.KeySample {
		if k[0].(int64)%2 != 0 {
			t.Error("key sample contains filtered-out key")
		}
	}
	// Dataset annotations filled from the real DFS.
	in := w.Dataset("in")
	if in.EstRecords != 8000 || in.EstPartitions != 6 || in.EstBytes <= 0 {
		t.Errorf("dataset annotation wrong: %+v", in)
	}
}

func TestAnnotateSampledCloseToTruth(t *testing.T) {
	w, dfs, _ := testWorkflowAndDFS(t)
	p := NewProfiler(mrsim.DefaultCluster(), 0.2, 7)
	if err := p.Annotate(w, dfs); err != nil {
		t.Fatal(err)
	}
	mp := w.Job("J1").Profile.MapProfile(w.Jobs[0].MapBranches[0])
	if math.Abs(mp.Selectivity-0.5) > 0.1 {
		t.Errorf("sampled selectivity %v too far from 0.5", mp.Selectivity)
	}
	// Sampling must not disturb the original DFS.
	stored, _ := dfs.Get("in")
	if stored.Records() != 8000 {
		t.Error("profiling mutated the source data")
	}
}

func TestAnnotateDeterministic(t *testing.T) {
	w1, dfs1, _ := testWorkflowAndDFS(t)
	w2, dfs2, _ := testWorkflowAndDFS(t)
	if err := NewProfiler(mrsim.DefaultCluster(), 0.3, 11).Annotate(w1, dfs1); err != nil {
		t.Fatal(err)
	}
	if err := NewProfiler(mrsim.DefaultCluster(), 0.3, 11).Annotate(w2, dfs2); err != nil {
		t.Fatal(err)
	}
	a := w1.Job("J1").Profile.MapProfile(w1.Jobs[0].MapBranches[0])
	b := w2.Job("J1").Profile.MapProfile(w2.Jobs[0].MapBranches[0])
	if a.Selectivity != b.Selectivity || a.CPUPerRecord != b.CPUPerRecord {
		t.Error("profiling not deterministic")
	}
}

func TestAnnotateRejectsBadFraction(t *testing.T) {
	w, dfs, _ := testWorkflowAndDFS(t)
	for _, f := range []float64{0, -0.5, 1.5} {
		if err := NewProfiler(mrsim.DefaultCluster(), f, 1).Annotate(w, dfs); err == nil {
			t.Errorf("fraction %v accepted", f)
		}
	}
}

func TestComposeSerial(t *testing.T) {
	a := &wf.PipelineProfile{
		Selectivity: 0.5, CPUPerRecord: 2e-6,
		InBytesPerRecord: 100, OutBytesPerRecord: 80,
		GroupsPerRecord: 0.1, CombineReduction: 0.3,
	}
	b := &wf.PipelineProfile{
		Selectivity: 2, CPUPerRecord: 4e-6,
		InBytesPerRecord: 80, OutBytesPerRecord: 50,
		KeySample: []keyval.Tuple{keyval.T(1)},
	}
	c := ComposeSerial(a, b)
	if c.Selectivity != 1.0 {
		t.Errorf("selectivity = %v, want 1.0", c.Selectivity)
	}
	// CPU: a pays 2e-6 per input record; b sees 0.5 records per input
	// record, each costing 4e-6.
	if math.Abs(c.CPUPerRecord-(2e-6+0.5*4e-6)) > 1e-15 {
		t.Errorf("cpu = %v", c.CPUPerRecord)
	}
	if c.InBytesPerRecord != 100 || c.OutBytesPerRecord != 50 {
		t.Error("byte rates not taken from ends of the pipeline")
	}
	if c.GroupsPerRecord != 0.1 || c.CombineReduction != 0.3 {
		t.Error("grouping stats not preserved from upstream")
	}
	if len(c.KeySample) != 1 {
		t.Error("key sample should come from downstream")
	}
	if ComposeSerial(nil, b) != nil || ComposeSerial(a, nil) != nil {
		t.Error("unknown inputs must compose to unknown")
	}
}

func TestComposeSerialAssociativeSelectivity(t *testing.T) {
	// Selectivity and CPU composition must be associative: packing
	// (a∘b)∘c and a∘(b∘c) describe the same pipeline.
	mk := func(sel, cpu float64) *wf.PipelineProfile {
		return &wf.PipelineProfile{Selectivity: sel, CPUPerRecord: cpu, CombineReduction: 1}
	}
	a, b, c := mk(0.5, 1e-6), mk(3, 2e-6), mk(0.1, 5e-6)
	left := ComposeSerial(ComposeSerial(a, b), c)
	right := ComposeSerial(a, ComposeSerial(b, c))
	if math.Abs(left.Selectivity-right.Selectivity) > 1e-15 {
		t.Error("selectivity composition not associative")
	}
	if math.Abs(left.CPUPerRecord-right.CPUPerRecord) > 1e-15 {
		t.Error("CPU composition not associative")
	}
}

func TestMergeHorizontal(t *testing.T) {
	j1 := &wf.Job{
		ID:          "a",
		MapBranches: []wf.MapBranch{{Tag: 0, Input: "d"}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "o1",
			Stages: []wf.Stage{wf.ReduceStage("r", sumReduce, nil, 0)},
		}},
		Profile: &wf.JobProfile{},
	}
	j1.Profile.SetMapProfile(0, "d", &wf.PipelineProfile{Selectivity: 0.5})
	j1.Profile.SetReduceProfile(0, &wf.PipelineProfile{Selectivity: 0.1})
	j2 := &wf.Job{
		ID:          "b",
		MapBranches: []wf.MapBranch{{Tag: 0, Input: "d"}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "o2",
			Stages: []wf.Stage{wf.ReduceStage("r", sumReduce, nil, 0)},
		}},
		Profile: &wf.JobProfile{},
	}
	j2.Profile.SetMapProfile(0, "d", &wf.PipelineProfile{Selectivity: 0.25})
	j2.Profile.SetReduceProfile(0, &wf.PipelineProfile{Selectivity: 0.2})
	merged := MergeHorizontal([]*wf.Job{j1, j2}, map[string]int{"a": 0, "b": 1})
	if merged == nil {
		t.Fatal("merge failed")
	}
	if merged.MapProfile(wf.MapBranch{Tag: 0, Input: "d"}).Selectivity != 0.5 {
		t.Error("tag 0 map profile wrong")
	}
	if merged.MapProfile(wf.MapBranch{Tag: 1, Input: "d"}).Selectivity != 0.25 {
		t.Error("tag 1 map profile wrong")
	}
	if merged.ReduceProfile(1).Selectivity != 0.2 {
		t.Error("tag 1 reduce profile wrong")
	}
	// A job without a profile poisons the merge (information spectrum).
	j2.Profile = nil
	if MergeHorizontal([]*wf.Job{j1, j2}, map[string]int{"a": 0, "b": 1}) != nil {
		t.Error("merge with unknown profile should be unknown")
	}
}

func TestHasFullProfiles(t *testing.T) {
	w := &wf.Workflow{Jobs: []*wf.Job{{ID: "a", Profile: &wf.JobProfile{}}, {ID: "b"}}}
	if HasFullProfiles(w) {
		t.Error("missing profile not detected")
	}
	w.Jobs[1].Profile = &wf.JobProfile{}
	if !HasFullProfiles(w) {
		t.Error("full profiles not detected")
	}
}
