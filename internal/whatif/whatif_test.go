package whatif

import (
	"math"
	"math/rand"
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/profile"
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

func genPairs(n, card int, seed int64) []keyval.Pair {
	r := rand.New(rand.NewSource(seed))
	out := make([]keyval.Pair, n)
	for i := range out {
		out[i] = keyval.Pair{Key: keyval.T(int64(r.Intn(card))), Value: keyval.T(int64(1))}
	}
	return out
}

func sumJob(id, in, out string) *wf.Job {
	return &wf.Job{
		ID: id, Config: wf.DefaultConfig(), Origin: []string{id},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: in,
			Stages: []wf.Stage{wf.MapStage("M_"+id, passMap, 1e-6)},
			KeyIn:  []string{"k"}, KeyOut: []string{"k"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: out,
			Stages: []wf.Stage{wf.ReduceStage("R_"+id, sumReduce, nil, 1e-6)},
			KeyIn:  []string{"k"}, KeyOut: []string{"k"},
		}},
	}
}

func testCluster() *mrsim.Cluster {
	c := mrsim.DefaultCluster()
	c.VirtualScale = 5000
	return c
}

// buildAnnotated returns a profiled two-job chain workflow and its DFS.
func buildAnnotated(t *testing.T, card int) (*wf.Workflow, *mrsim.DFS, *mrsim.Cluster) {
	t.Helper()
	pairs := genPairs(20000, card, 42)
	dfs := mrsim.NewDFS()
	if err := dfs.Ingest("in", pairs, mrsim.IngestSpec{
		NumPartitions: 8,
		KeyFields:     []string{"k"},
		Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}},
	}); err != nil {
		t.Fatal(err)
	}
	j1 := sumJob("J1", "in", "mid")
	j1.Config.NumReduceTasks = 8
	j2 := sumJob("J2", "mid", "out")
	j2.Config.NumReduceTasks = 4
	w := &wf.Workflow{
		Name: "chain",
		Jobs: []*wf.Job{j1, j2},
		Datasets: []*wf.Dataset{
			{ID: "in", Base: true, KeyFields: []string{"k"}, ValueFields: []string{"v"}},
			{ID: "mid", KeyFields: []string{"k"}},
			{ID: "out"},
		},
	}
	cl := testCluster()
	if err := profile.NewProfiler(cl, 1.0, 3).Annotate(w, dfs); err != nil {
		t.Fatal(err)
	}
	return w, dfs, cl
}

func TestEstimateTracksActual(t *testing.T) {
	w, dfs, cl := buildAnnotated(t, 500)
	est, err := New(cl).Estimate(w)
	if err != nil {
		t.Fatal(err)
	}
	if est.Fallback {
		t.Fatal("unexpected fallback")
	}
	rep, err := mrsim.NewEngine(cl, dfs).RunWorkflow(w)
	if err != nil {
		t.Fatal(err)
	}
	// Profiled at fraction 1.0, estimate should track actual closely.
	ratio := est.Makespan / rep.Makespan
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("estimate %v vs actual %v (ratio %v)", est.Makespan, rep.Makespan, ratio)
	}
	// Task counts must match the executor's.
	for _, id := range []string{"J1", "J2"} {
		je, jr := est.Jobs[id], rep.Job(id)
		if je.MapTasks != jr.NumMapTasks {
			t.Errorf("%s: est %d map tasks, actual %d", id, je.MapTasks, jr.NumMapTasks)
		}
		if je.ReduceTasks != jr.NumReduceTasks {
			t.Errorf("%s: est %d reduce tasks, actual %d", id, je.ReduceTasks, jr.NumReduceTasks)
		}
	}
}

func TestEstimateOrdersConfigurations(t *testing.T) {
	// The estimator must prefer the configuration that actually runs
	// faster — the property RRS relies on.
	w, dfs, cl := buildAnnotated(t, 5000)
	run := func(reducers int) (float64, float64) {
		wc := w.Clone()
		wc.Job("J1").Config.NumReduceTasks = reducers
		est, err := New(cl).Estimate(wc)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mrsim.NewEngine(cl, dfs.Clone()).RunWorkflow(wc)
		if err != nil {
			t.Fatal(err)
		}
		return est.Makespan, rep.Makespan
	}
	est1, act1 := run(1)
	est40, act40 := run(40)
	if (est40 < est1) != (act40 < act1) {
		t.Errorf("estimator disagrees with actual: est(1)=%v est(40)=%v act(1)=%v act(40)=%v",
			est1, est40, act1, act40)
	}
	if est40 >= est1 {
		t.Errorf("estimator should prefer 40 reducers for a large shuffle: %v vs %v", est40, est1)
	}
}

func TestEstimateCompressionDirection(t *testing.T) {
	w, _, cl := buildAnnotated(t, 20000)
	base, err := New(cl).Estimate(w)
	if err != nil {
		t.Fatal(err)
	}
	wc := w.Clone()
	wc.Job("J1").Config.CompressMapOutput = true
	comp, err := New(cl).Estimate(wc)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Makespan >= base.Makespan {
		t.Errorf("compression should reduce estimated cost: %v vs %v", comp.Makespan, base.Makespan)
	}
	if comp.Jobs["J1"].ShuffleBytesVirtual >= base.Jobs["J1"].ShuffleBytesVirtual {
		t.Error("compression should shrink estimated shuffle bytes")
	}
}

func TestFallbackWithoutProfiles(t *testing.T) {
	w, _, cl := buildAnnotated(t, 100)
	w.Job("J2").Profile = nil
	est, err := New(cl).Estimate(w)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Fallback {
		t.Fatal("expected fallback without profiles")
	}
	if est.Makespan != 2 {
		t.Errorf("fallback cost should be #jobs = 2, got %v", est.Makespan)
	}
}

func TestFallbackWithoutBaseSizes(t *testing.T) {
	w, _, cl := buildAnnotated(t, 100)
	w.Dataset("in").EstRecords = 0
	est, err := New(cl).Estimate(w)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Fallback {
		t.Error("expected fallback without dataset size annotations")
	}
}

func TestSkewEstimatedFromKeySample(t *testing.T) {
	// One hot key -> straggler estimate well above the average.
	pairs := make([]keyval.Pair, 20000)
	for i := range pairs {
		k := int64(1)
		if i%10 == 0 {
			k = int64(i)
		}
		pairs[i] = keyval.Pair{Key: keyval.T(k), Value: keyval.T(int64(1))}
	}
	dfs := mrsim.NewDFS()
	if err := dfs.Ingest("in", pairs, mrsim.IngestSpec{NumPartitions: 4, KeyFields: []string{"k"},
		Layout: wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}}}); err != nil {
		t.Fatal(err)
	}
	j := sumJob("J1", "in", "out")
	j.Config.NumReduceTasks = 10
	w := &wf.Workflow{Name: "skew", Jobs: []*wf.Job{j}, Datasets: []*wf.Dataset{
		{ID: "in", Base: true, KeyFields: []string{"k"}}, {ID: "out"}}}
	cl := testCluster()
	if err := profile.NewProfiler(cl, 1.0, 5).Annotate(w, dfs); err != nil {
		t.Fatal(err)
	}
	est, err := New(cl).Estimate(w)
	if err != nil {
		t.Fatal(err)
	}
	je := est.Jobs["J1"]
	if je.MaxReduceTaskSec < je.AvgReduceTaskSec*2 {
		t.Errorf("skew not detected: max %v vs avg %v", je.MaxReduceTaskSec, je.AvgReduceTaskSec)
	}
}

// TestSplitPointDigestShared: plan clones share split points, so estimating
// 50 clones of one range-partitioned plan adds exactly one digest entry, for
// their split points, and the memoized digest gives the skew share a fresh
// estimator computes.
func TestSplitPointDigestShared(t *testing.T) {
	w, _, cl := buildAnnotated(t, 500)
	e := New(cl)
	if _, err := e.Estimate(w); err != nil {
		t.Fatal(err)
	}
	before := len(e.digests) // the two jobs' key samples
	ranged := w.Clone()
	j1 := ranged.Job("J1")
	j1.ReduceGroups[0].Part = keyval.PartitionSpec{Type: keyval.RangePartition, KeyFields: []int{0},
		SplitPoints: keyval.EquiDepthSplitPoints(j1.Profile.MapSide[0].KeySample, []int{0}, 8)}
	parts := len(j1.ReduceGroups[0].Part.SplitPoints) + 1
	for i := 0; i < 50; i++ {
		c := ranged.Clone()
		if _, err := e.Estimate(c); err != nil {
			t.Fatal(err)
		}
		job := c.Job("J1")
		te := &tagEst{group: &job.ReduceGroups[0], numParts: parts, maxShare: 1}
		if got, want := e.skewShare(job, 0, te), New(cl).skewShare(job, 0, te); got != want {
			t.Fatalf("clone %d: skew share %v, a fresh estimator's %v", i, got, want)
		}
	}
	if added := len(e.digests) - before; added != 1 {
		t.Errorf("50 clones added %d digest entries, want 1 for their shared split points", added)
	}
}

func TestPruneKeepFraction(t *testing.T) {
	layout := wf.Layout{
		PartType:    keyval.RangePartition,
		PartFields:  []string{"k"},
		SplitPoints: []keyval.Tuple{keyval.T(int64(100)), keyval.T(int64(200)), keyval.T(int64(300))},
	}
	job := &wf.Job{MapBranches: []wf.MapBranch{{
		Tag: 0, Input: "d",
		Filter: &wf.Filter{Field: "k", Interval: keyval.Interval{Hi: int64(100)}},
	}}}
	e := New(testCluster())
	if got := e.pruneKeepFraction(job, "d", layout); got != 0.25 {
		t.Errorf("keep fraction = %v, want 0.25", got)
	}
	// Second branch without filter blocks pruning.
	job.MapBranches = append(job.MapBranches, wf.MapBranch{Tag: 1, Input: "d"})
	if got := e.pruneKeepFraction(job, "d", layout); got != 1 {
		t.Errorf("keep fraction with unfiltered branch = %v, want 1", got)
	}
	// Hash layout: no pruning.
	if got := e.pruneKeepFraction(job, "d", wf.Layout{PartType: keyval.HashPartition}); got != 1 {
		t.Errorf("hash layout keep fraction = %v", got)
	}
}

func TestDatasetEstimatesPropagate(t *testing.T) {
	w, dfs, cl := buildAnnotated(t, 300)
	est, err := New(cl).Estimate(w)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mrsim.NewEngine(cl, dfs).RunWorkflow(w)
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
	mid, ok := est.Datasets["mid"]
	if !ok {
		t.Fatal("no estimate for mid")
	}
	// J1 groups 20000 records into 300 keys.
	if math.Abs(mid.Records-300) > 30 {
		t.Errorf("mid records estimate = %v, want ~300", mid.Records)
	}
	if mid.Partitions != 8 {
		t.Errorf("mid partitions = %d, want 8", mid.Partitions)
	}
	stored, _ := dfs.Get("mid")
	if int64(mid.Records) != stored.Records() {
		t.Errorf("estimated %v records, actual %d", mid.Records, stored.Records())
	}
	if len(mid.Layout.PartFields) != 1 || mid.Layout.PartFields[0] != "k" {
		t.Errorf("mid layout = %v", mid.Layout)
	}
}

func TestEstimateCycleError(t *testing.T) {
	w, _, cl := buildAnnotated(t, 100)
	w.Job("J1").MapBranches[0].Input = "out" // J1 reads J2's output: cycle
	if _, err := New(cl).Estimate(w); err == nil {
		t.Error("cycle accepted")
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{10, 5, 2}, {11, 5, 3}, {1, 5, 1}, {0, 5, 1}, {5, 0, 1},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
