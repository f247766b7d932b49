package mrsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/wf"
)

// --- helpers ---------------------------------------------------------------

func testCluster() *Cluster {
	c := DefaultCluster()
	c.VirtualScale = 1000
	return c
}

func passMap(key, value keyval.Tuple, emit wf.Emit) { emit(key, value) }

func sumReduce(key keyval.Tuple, values []keyval.Tuple, emit wf.Emit) {
	var s int64
	for _, v := range values {
		s += v[0].(int64)
	}
	emit(key, keyval.T(s))
}

// sumJob groups by key and sums the first value field.
func sumJob(id, in, out string) *wf.Job {
	return &wf.Job{
		ID:     id,
		Config: wf.DefaultConfig(),
		Origin: []string{id},
		MapBranches: []wf.MapBranch{{
			Tag:    0,
			Input:  in,
			Stages: []wf.Stage{wf.MapStage("M_"+id, passMap, 1e-6)},
			KeyIn:  []string{"k"}, ValIn: []string{"v"},
			KeyOut: []string{"k"}, ValOut: []string{"v"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag:    0,
			Output: out,
			Stages: []wf.Stage{wf.ReduceStage("R_"+id, sumReduce, nil, 1e-6)},
			KeyIn:  []string{"k"}, ValIn: []string{"v"},
			KeyOut: []string{"k"}, ValOut: []string{"sum"},
		}},
	}
}

// genPairs makes n records with keys in [0, cardinality).
func genPairs(n, cardinality int, seed int64) []keyval.Pair {
	r := rand.New(rand.NewSource(seed))
	out := make([]keyval.Pair, n)
	for i := range out {
		out[i] = keyval.Pair{Key: keyval.T(int64(r.Intn(cardinality))), Value: keyval.T(int64(1))}
	}
	return out
}

func singleJobWorkflow(j *wf.Job, in, out string) *wf.Workflow {
	return &wf.Workflow{
		Name:     "test",
		Jobs:     []*wf.Job{j},
		Datasets: []*wf.Dataset{{ID: in, Base: true, KeyFields: []string{"k"}, ValueFields: []string{"v"}}, {ID: out}},
	}
}

func ingest(t *testing.T, dfs *DFS, id string, pairs []keyval.Pair, parts int) {
	t.Helper()
	err := dfs.Ingest(id, pairs, IngestSpec{
		NumPartitions: parts,
		KeyFields:     []string{"k"},
		Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// groundTruthSums computes expected group sums.
func groundTruthSums(pairs []keyval.Pair) map[int64]int64 {
	m := map[int64]int64{}
	for _, p := range pairs {
		m[p.Key[0].(int64)] += p.Value[0].(int64)
	}
	return m
}

func checkSums(t *testing.T, dfs *DFS, ds string, want map[int64]int64) {
	t.Helper()
	stored, ok := dfs.Get(ds)
	if !ok {
		t.Fatalf("output %q missing", ds)
	}
	got := map[int64]int64{}
	for _, p := range stored.AllPairs() {
		got[p.Key[0].(int64)] += p.Value[0].(int64)
	}
	if len(got) != len(want) {
		t.Fatalf("output has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: sum %d, want %d", k, got[k], v)
		}
	}
}

// --- DFS -------------------------------------------------------------------

func TestIngestHashLayout(t *testing.T) {
	dfs := NewDFS()
	pairs := genPairs(1000, 50, 1)
	err := dfs.Ingest("d", pairs, IngestSpec{
		NumPartitions: 8,
		KeyFields:     []string{"k"},
		Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}, SortFields: []string{"k"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := dfs.Get("d")
	if len(s.Parts) != 8 {
		t.Fatalf("parts = %d", len(s.Parts))
	}
	if s.Records() != 1000 {
		t.Fatalf("records = %d", s.Records())
	}
	if s.Bytes() != keyval.PairsSize(pairs) {
		t.Error("bytes mismatch")
	}
	// Co-partitioning: every key appears in exactly one partition.
	keyPart := map[int64]int{}
	for pi, part := range s.Parts {
		if !keyval.IsSortedOn(part.Pairs, []int{0}) {
			t.Errorf("partition %d not sorted", pi)
		}
		for _, p := range part.Pairs {
			k := p.Key[0].(int64)
			if prev, ok := keyPart[k]; ok && prev != pi {
				t.Fatalf("key %d in partitions %d and %d", k, prev, pi)
			}
			keyPart[k] = pi
		}
	}
}

func TestIngestRangeLayoutAndBounds(t *testing.T) {
	dfs := NewDFS()
	var pairs []keyval.Pair
	for i := 0; i < 400; i++ {
		pairs = append(pairs, keyval.Pair{Key: keyval.T(int64(i)), Value: keyval.T(int64(1))})
	}
	err := dfs.Ingest("d", pairs, IngestSpec{
		NumPartitions: 4,
		KeyFields:     []string{"k"},
		Layout:        wf.Layout{PartType: keyval.RangePartition, PartFields: []string{"k"}, SortFields: []string{"k"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := dfs.Get("d")
	if len(s.Parts) != 4 {
		t.Fatalf("parts = %d", len(s.Parts))
	}
	if len(s.Layout.SplitPoints) != 3 {
		t.Fatalf("split points = %d", len(s.Layout.SplitPoints))
	}
	for pi, part := range s.Parts {
		iv := part.Bounds.Interval()
		for _, p := range part.Pairs {
			if !iv.Contains(p.Key[0]) {
				t.Fatalf("partition %d holds key %v outside bounds %v", pi, p.Key, iv)
			}
		}
	}
}

func TestIngestErrors(t *testing.T) {
	dfs := NewDFS()
	if err := dfs.Ingest("d", nil, IngestSpec{NumPartitions: 0}); err == nil {
		t.Error("zero partitions accepted")
	}
	err := dfs.Ingest("d", nil, IngestSpec{
		NumPartitions: 2,
		KeyFields:     []string{"k"},
		Layout:        wf.Layout{PartFields: []string{"missing"}},
	})
	if err == nil {
		t.Error("unknown partition field accepted")
	}
	err = dfs.Ingest("d", nil, IngestSpec{
		NumPartitions: 2,
		KeyFields:     []string{"k"},
		Layout:        wf.Layout{SortFields: []string{"missing"}},
	})
	if err == nil {
		t.Error("unknown sort field accepted")
	}
}

func TestDFSCloneIndependence(t *testing.T) {
	dfs := NewDFS()
	ingest(t, dfs, "d", genPairs(100, 10, 2), 2)
	clone := dfs.Clone()
	ingest(t, clone, "e", genPairs(10, 10, 3), 1)
	clone.Put("d", nil, wf.Layout{})
	if s, ok := dfs.Get("d"); !ok || len(s.Parts) != 2 {
		t.Error("replacing a dataset on the clone affected the original")
	}
	if len(dfs.IDs()) != 1 || dfs.IDs()[0] != "d" {
		t.Errorf("IDs = %v", dfs.IDs())
	}
}

// --- correctness -----------------------------------------------------------

func TestRunSingleJobCorrectness(t *testing.T) {
	pairs := genPairs(5000, 100, 3)
	dfs := NewDFS()
	ingest(t, dfs, "in", pairs, 8)
	job := sumJob("J1", "in", "out")
	job.Config.NumReduceTasks = 7
	w := singleJobWorkflow(job, "in", "out")
	eng := NewEngine(testCluster(), dfs)
	rep, err := eng.RunWorkflow(w)
	if err != nil {
		t.Fatal(err)
	}
	checkSums(t, dfs, "out", groundTruthSums(pairs))
	if rep.Makespan <= 0 {
		t.Error("zero makespan")
	}
	jr := rep.Job("J1")
	if jr == nil || jr.NumReduceTasks != 7 {
		t.Fatalf("job report wrong: %+v", jr)
	}
	if jr.Tags[0].MapByInput["in"].InRecords != 5000 {
		t.Errorf("map input records = %d", jr.Tags[0].MapByInput["in"].InRecords)
	}
	if jr.Tags[0].Reduce.OutRecords != 100 {
		t.Errorf("reduce output records = %d, want 100 groups", jr.Tags[0].Reduce.OutRecords)
	}
	// Output layout derived: hash partitioned on k, 7 partitions.
	out, _ := dfs.Get("out")
	if len(out.Parts) != 7 {
		t.Errorf("output partitions = %d", len(out.Parts))
	}
	if len(out.Layout.PartFields) != 1 || out.Layout.PartFields[0] != "k" {
		t.Errorf("output layout = %v", out.Layout)
	}
}

func TestRunDeterminism(t *testing.T) {
	pairs := genPairs(2000, 37, 4)
	run := func() (*RunReport, []keyval.Pair) {
		dfs := NewDFS()
		ingest(t, dfs, "in", pairs, 4)
		job := sumJob("J1", "in", "out")
		job.Config.NumReduceTasks = 5
		w := singleJobWorkflow(job, "in", "out")
		rep, err := NewEngine(testCluster(), dfs).RunWorkflow(w)
		if err != nil {
			t.Fatal(err)
		}
		stored, _ := dfs.Get("out")
		return rep, stored.AllPairs()
	}
	r1, o1 := run()
	r2, o2 := run()
	if r1.Makespan != r2.Makespan {
		t.Errorf("makespans differ: %v vs %v", r1.Makespan, r2.Makespan)
	}
	if len(o1) != len(o2) {
		t.Fatalf("output sizes differ")
	}
	for i := range o1 {
		if keyval.Compare(o1[i].Key, o2[i].Key) != 0 || keyval.Compare(o1[i].Value, o2[i].Value) != 0 {
			t.Fatalf("outputs differ at %d", i)
		}
	}
}

func TestChainedJobsCorrectness(t *testing.T) {
	// J1 sums per key; J2 re-keys to k%10 and sums again.
	pairs := genPairs(3000, 100, 5)
	dfs := NewDFS()
	ingest(t, dfs, "in", pairs, 4)
	j1 := sumJob("J1", "in", "mid")
	j1.Config.NumReduceTasks = 4
	j2 := sumJob("J2", "mid", "out")
	j2.MapBranches[0].Stages = []wf.Stage{wf.MapStage("M_J2", func(k, v keyval.Tuple, emit wf.Emit) {
		emit(keyval.T(k[0].(int64)%10), v)
	}, 1e-6)}
	j2.Config.NumReduceTasks = 3
	w := &wf.Workflow{
		Name: "chain",
		Jobs: []*wf.Job{j1, j2},
		Datasets: []*wf.Dataset{
			{ID: "in", Base: true, KeyFields: []string{"k"}, ValueFields: []string{"v"}},
			{ID: "mid", KeyFields: []string{"k"}, ValueFields: []string{"sum"}},
			{ID: "out"},
		},
	}
	if _, err := NewEngine(testCluster(), dfs).RunWorkflow(w); err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{}
	for k, v := range groundTruthSums(pairs) {
		want[k%10] += v
	}
	checkSums(t, dfs, "out", want)
}

func TestMapOnlyJob(t *testing.T) {
	pairs := genPairs(1000, 20, 6)
	dfs := NewDFS()
	ingest(t, dfs, "in", pairs, 3)
	job := &wf.Job{
		ID: "M", Config: wf.DefaultConfig(), Origin: []string{"M"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "in",
			Stages: []wf.Stage{wf.MapStage("double", func(k, v keyval.Tuple, emit wf.Emit) {
				emit(k, keyval.T(v[0].(int64)*2))
			}, 1e-6)},
			KeyOut: []string{"k"},
		}},
		ReduceGroups: []wf.ReduceGroup{{Tag: 0, Output: "out", KeyOut: []string{"k"}}},
	}
	w := singleJobWorkflow(job, "in", "out")
	rep, err := NewEngine(testCluster(), dfs).RunWorkflow(w)
	if err != nil {
		t.Fatal(err)
	}
	jr := rep.Job("M")
	if jr.NumReduceTasks != 0 {
		t.Error("map-only job scheduled reduce tasks")
	}
	if jr.ShuffleBytesVirtual != 0 {
		t.Error("map-only job shuffled data")
	}
	want := map[int64]int64{}
	for _, p := range pairs {
		want[p.Key[0].(int64)] += 2
	}
	checkSums(t, dfs, "out", want)
}

func TestCombinerReducesShuffle(t *testing.T) {
	pairs := genPairs(20000, 10, 7) // heavy duplication: combiner helps
	run := func(useCombiner bool) (*RunReport, map[int64]int64) {
		dfs := NewDFS()
		ingest(t, dfs, "in", pairs, 4)
		job := sumJob("J1", "in", "out")
		comb := wf.ReduceStage("C", sumReduce, nil, 1e-6)
		job.ReduceGroups[0].Combiner = &comb
		job.Config.UseCombiner = useCombiner
		job.Config.NumReduceTasks = 4
		w := singleJobWorkflow(job, "in", "out")
		rep, err := NewEngine(testCluster(), dfs).RunWorkflow(w)
		if err != nil {
			t.Fatal(err)
		}
		stored, _ := dfs.Get("out")
		got := map[int64]int64{}
		for _, p := range stored.AllPairs() {
			got[p.Key[0].(int64)] = p.Value[0].(int64)
		}
		return rep, got
	}
	with, outWith := run(true)
	without, outWithout := run(false)
	want := groundTruthSums(pairs)
	for k, v := range want {
		if outWith[k] != v || outWithout[k] != v {
			t.Fatalf("key %d: with=%d without=%d want=%d", k, outWith[k], outWithout[k], v)
		}
	}
	jw, jo := with.Job("J1"), without.Job("J1")
	if jw.ShuffleBytesVirtual >= jo.ShuffleBytesVirtual {
		t.Errorf("combiner did not reduce shuffle: %v vs %v", jw.ShuffleBytesVirtual, jo.ShuffleBytesVirtual)
	}
	if jw.Tags[0].CombineOut >= jw.Tags[0].CombineIn {
		t.Error("combine stats show no reduction")
	}
	if jo.Tags[0].CombineIn != jo.Tags[0].CombineOut {
		t.Error("combiner ran while disabled")
	}
}

func TestCompressionTradeoff(t *testing.T) {
	pairs := genPairs(20000, 20000, 8) // no duplication
	makespan := func(comp bool) float64 {
		dfs := NewDFS()
		ingest(t, dfs, "in", pairs, 4)
		job := sumJob("J1", "in", "out")
		job.Config.CompressMapOutput = comp
		job.Config.NumReduceTasks = 8
		w := singleJobWorkflow(job, "in", "out")
		rep, err := NewEngine(testCluster(), dfs).RunWorkflow(w)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	// With default calibration (cheap compression CPU, slow network),
	// compressing map output should win for shuffle-heavy jobs.
	if makespan(true) >= makespan(false) {
		t.Error("map-output compression should speed up shuffle-heavy job")
	}
}

func TestPartitionPruning(t *testing.T) {
	var pairs []keyval.Pair
	for i := 0; i < 4000; i++ {
		pairs = append(pairs, keyval.Pair{Key: keyval.T(int64(i % 1000)), Value: keyval.T(int64(1))})
	}
	build := func(withFilter bool) (*RunReport, *DFS) {
		dfs := NewDFS()
		err := dfs.Ingest("in", pairs, IngestSpec{
			NumPartitions: 10,
			KeyFields:     []string{"k"},
			Layout:        wf.Layout{PartType: keyval.RangePartition, PartFields: []string{"k"}, SortFields: []string{"k"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		job := sumJob("J1", "in", "out")
		job.MapBranches[0].Stages = []wf.Stage{wf.MapStage("filter", func(k, v keyval.Tuple, emit wf.Emit) {
			if k[0].(int64) < 100 {
				emit(k, v)
			}
		}, 1e-6)}
		if withFilter {
			job.MapBranches[0].Filter = &wf.Filter{Field: "k", Interval: keyval.Interval{Hi: int64(100)}}
		}
		w := singleJobWorkflow(job, "in", "out")
		rep, err := NewEngine(testCluster(), dfs).RunWorkflow(w)
		if err != nil {
			t.Fatal(err)
		}
		return rep, dfs
	}
	withF, dfsF := build(true)
	withoutF, dfsN := build(false)
	if withF.Job("J1").PrunedPartitions == 0 {
		t.Error("no partitions pruned despite filter annotation")
	}
	if withoutF.Job("J1").PrunedPartitions != 0 {
		t.Error("partitions pruned without filter annotation")
	}
	if withF.Job("J1").MapInputBytes >= withoutF.Job("J1").MapInputBytes {
		t.Error("pruning did not reduce input bytes")
	}
	// Pruning must not change results.
	a, _ := dfsF.Get("out")
	b, _ := dfsN.Get("out")
	ga, gb := map[int64]int64{}, map[int64]int64{}
	for _, p := range a.AllPairs() {
		ga[p.Key[0].(int64)] += p.Value[0].(int64)
	}
	for _, p := range b.AllPairs() {
		gb[p.Key[0].(int64)] += p.Value[0].(int64)
	}
	if len(ga) != len(gb) {
		t.Fatalf("pruned result has %d keys, unpruned %d", len(ga), len(gb))
	}
	for k, v := range gb {
		if ga[k] != v {
			t.Fatalf("pruning changed result for key %d", k)
		}
	}
}

func TestHorizontalTagsShareScan(t *testing.T) {
	// One job with two tags reading the same input: tag 0 sums, tag 1 counts.
	pairs := genPairs(3000, 50, 9)
	dfs := NewDFS()
	ingest(t, dfs, "in", pairs, 4)
	countReduce := func(key keyval.Tuple, values []keyval.Tuple, emit wf.Emit) {
		emit(key, keyval.T(int64(len(values))))
	}
	job := &wf.Job{
		ID: "H", Config: wf.DefaultConfig(), Origin: []string{"A", "B"},
		MapBranches: []wf.MapBranch{
			{Tag: 0, Input: "in", Stages: []wf.Stage{wf.MapStage("Ma", passMap, 1e-6)}, KeyOut: []string{"k"}},
			{Tag: 1, Input: "in", Stages: []wf.Stage{wf.MapStage("Mb", passMap, 1e-6)}, KeyOut: []string{"k"}},
		},
		ReduceGroups: []wf.ReduceGroup{
			{Tag: 0, Output: "sums", Stages: []wf.Stage{wf.ReduceStage("Ra", sumReduce, nil, 1e-6)}, KeyIn: []string{"k"}, KeyOut: []string{"k"}},
			{Tag: 1, Output: "counts", Stages: []wf.Stage{wf.ReduceStage("Rb", countReduce, nil, 1e-6)}, KeyIn: []string{"k"}, KeyOut: []string{"k"}},
		},
	}
	job.Config.NumReduceTasks = 3
	w := &wf.Workflow{
		Name: "horizontal",
		Jobs: []*wf.Job{job},
		Datasets: []*wf.Dataset{
			{ID: "in", Base: true, KeyFields: []string{"k"}},
			{ID: "sums"}, {ID: "counts"},
		},
	}
	rep, err := NewEngine(testCluster(), dfs).RunWorkflow(w)
	if err != nil {
		t.Fatal(err)
	}
	checkSums(t, dfs, "sums", groundTruthSums(pairs))
	counts, _ := dfs.Get("counts")
	var total int64
	for _, p := range counts.AllPairs() {
		total += p.Value[0].(int64)
	}
	if total != 3000 {
		t.Errorf("counts total = %d, want 3000", total)
	}
	// The scan is shared: input bytes read once, not twice.
	if got, want := rep.Job("H").MapInputBytes, keyval.PairsSize(pairs); got != want {
		t.Errorf("map input bytes = %d, want %d (single scan)", got, want)
	}
}

func TestAlignedMapToInput(t *testing.T) {
	// Producer range-partitions and sorts by k; consumer is map-only with a
	// pipelined reduce stage that relies on input clustering.
	pairs := genPairs(4000, 200, 10)
	dfs := NewDFS()
	ingest(t, dfs, "in", pairs, 4)
	j1 := sumJob("J1", "in", "mid")
	j1.Config.NumReduceTasks = 5
	// Consumer: map-only job whose pipeline is [identity map, sum reduce]
	// grouping on k — valid only because input partitions are sorted by k
	// and map tasks are aligned to partitions.
	j2 := &wf.Job{
		ID: "J2", Config: wf.DefaultConfig(), Origin: []string{"J2"}, AlignMapToInput: true,
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "mid",
			Stages: []wf.Stage{
				wf.MapStage("M2", passMap, 1e-6),
				wf.ReduceStage("R2", sumReduce, []int{0}, 1e-6),
			},
			KeyIn: []string{"k"}, KeyOut: []string{"k"},
		}},
		ReduceGroups: []wf.ReduceGroup{{Tag: 0, Output: "out", KeyOut: []string{"k"}}},
	}
	w := &wf.Workflow{
		Name: "aligned",
		Jobs: []*wf.Job{j1, j2},
		Datasets: []*wf.Dataset{
			{ID: "in", Base: true, KeyFields: []string{"k"}},
			{ID: "mid", KeyFields: []string{"k"}},
			{ID: "out"},
		},
	}
	rep, err := NewEngine(testCluster(), dfs).RunWorkflow(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Job("J2").NumMapTasks; got != 5 {
		t.Errorf("aligned consumer has %d map tasks, want 5 (producer reducers)", got)
	}
	// J1 already summed per key; J2 re-sums — results must match ground truth.
	checkSums(t, dfs, "out", groundTruthSums(pairs))
}

// TestAlignedMultiInputTimingsDeterministic holds an aligned map task over
// two inputs to one duration on every run: its read terms add up in job
// input order. Summed in the order of a Go map, the float total differs
// from run to run at some virtual scales (1001 and 1005 here).
func TestAlignedMultiInputTimingsDeterministic(t *testing.T) {
	base := NewDFS()
	ingest(t, base, "a", genPairs(3000, 100, 11), 3)
	ingest(t, base, "b", genPairs(1700, 100, 12), 3)
	job := &wf.Job{
		ID: "J", Config: wf.DefaultConfig(), AlignMapToInput: true,
		MapBranches: []wf.MapBranch{
			{Tag: 0, Input: "a", Stages: []wf.Stage{wf.MapStage("Ma", passMap, 1e-6)}},
			{Tag: 1, Input: "b", Stages: []wf.Stage{wf.MapStage("Mb", passMap, 1e-6)}},
		},
		ReduceGroups: []wf.ReduceGroup{{Tag: 0, Output: "outA"}, {Tag: 1, Output: "outB"}},
	}
	w := &wf.Workflow{
		Name: "aligned2",
		Jobs: []*wf.Job{job},
		Datasets: []*wf.Dataset{
			{ID: "a", Base: true, KeyFields: []string{"k"}},
			{ID: "b", Base: true, KeyFields: []string{"k"}},
			{ID: "outA"}, {ID: "outB"},
		},
	}
	for scale := 1000; scale <= 1007; scale++ {
		patterns := map[string]bool{}
		for run := 0; run < 40; run++ {
			c := testCluster()
			c.VirtualScale = float64(scale)
			eng := NewEngine(c, base.Clone())
			eng.RecordTaskEvents = true
			rep, err := eng.RunWorkflow(w)
			if err != nil {
				t.Fatal(err)
			}
			var ends []uint64
			for _, ev := range rep.TaskEvents {
				if !ev.Reduce {
					ends = append(ends, math.Float64bits(ev.End))
				}
			}
			if len(ends) != 3 {
				t.Fatalf("scale %d: %d map tasks, want 3 (one per aligned partition)", scale, len(ends))
			}
			patterns[fmt.Sprint(ends)] = true
		}
		if len(patterns) != 1 {
			t.Errorf("scale %d: map task end times took %d bit patterns over 40 runs, want 1", scale, len(patterns))
		}
	}
}

func TestAlignedMismatchedPartitionsFails(t *testing.T) {
	dfs := NewDFS()
	ingest(t, dfs, "a", genPairs(100, 10, 11), 2)
	ingest(t, dfs, "b", genPairs(100, 10, 12), 3)
	job := &wf.Job{
		ID: "J", Config: wf.DefaultConfig(), AlignMapToInput: true,
		MapBranches: []wf.MapBranch{
			{Tag: 0, Input: "a", Stages: []wf.Stage{wf.MapStage("Ma", passMap, 0)}},
			{Tag: 0, Input: "b", Stages: []wf.Stage{wf.MapStage("Mb", passMap, 0)}},
		},
		ReduceGroups: []wf.ReduceGroup{{Tag: 0, Output: "out", Stages: []wf.Stage{wf.ReduceStage("R", sumReduce, nil, 0)}}},
	}
	w := &wf.Workflow{
		Name: "bad",
		Jobs: []*wf.Job{job},
		Datasets: []*wf.Dataset{
			{ID: "a", Base: true}, {ID: "b", Base: true}, {ID: "out"},
		},
	}
	if _, err := NewEngine(testCluster(), dfs).RunWorkflow(w); err == nil {
		t.Error("mismatched aligned partitions accepted")
	}
}

func TestMissingBaseDatasetFails(t *testing.T) {
	w := singleJobWorkflow(sumJob("J1", "in", "out"), "in", "out")
	if _, err := NewEngine(testCluster(), NewDFS()).RunWorkflow(w); err == nil {
		t.Error("missing base dataset accepted")
	}
}

// --- performance model -----------------------------------------------------

func TestMoreReducersMoreParallelism(t *testing.T) {
	pairs := genPairs(30000, 5000, 13)
	makespan := func(reducers int) float64 {
		dfs := NewDFS()
		ingest(t, dfs, "in", pairs, 8)
		job := sumJob("J1", "in", "out")
		job.Config.NumReduceTasks = reducers
		w := singleJobWorkflow(job, "in", "out")
		rep, err := NewEngine(testCluster(), dfs).RunWorkflow(w)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	if makespan(40) >= makespan(1) {
		t.Error("40 reducers should beat 1 reducer on a large shuffle")
	}
}

func TestSkewSlowsReduce(t *testing.T) {
	// All records share one key: a single reducer does all the work.
	skewed := make([]keyval.Pair, 8000)
	for i := range skewed {
		skewed[i] = keyval.Pair{Key: keyval.T(int64(1)), Value: keyval.T(int64(1))}
	}
	uniform := genPairs(8000, 1000, 14)
	run := func(pairs []keyval.Pair) *JobReport {
		dfs := NewDFS()
		ingest(t, dfs, "in", pairs, 4)
		job := sumJob("J1", "in", "out")
		job.Config.NumReduceTasks = 8
		w := singleJobWorkflow(job, "in", "out")
		rep, err := NewEngine(testCluster(), dfs).RunWorkflow(w)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Job("J1")
	}
	s, u := run(skewed), run(uniform)
	if s.MaxReduceTaskSec <= u.MaxReduceTaskSec {
		t.Error("skewed data should produce a slower straggler reduce task")
	}
}

func TestWavesScheduling(t *testing.T) {
	c := testCluster()
	c.Nodes = 2
	c.MapSlotsPerNode = 1
	c.ReduceSlotsPerNode = 1
	// 4 map tasks on 2 slots -> 2 waves.
	pool := NewSlotPool(2)
	var last float64
	for i := 0; i < 4; i++ {
		_, end := pool.Schedule(0, 10)
		if end > last {
			last = end
		}
	}
	if last != 20 {
		t.Errorf("4 tasks x 10s on 2 slots should finish at 20, got %v", last)
	}
	if pool.EarliestFree() != 20 {
		t.Errorf("earliest free = %v", pool.EarliestFree())
	}
}

func TestConcurrentJobsOverlap(t *testing.T) {
	// Two independent small jobs should overlap on the cluster: combined
	// makespan well below the sum of their solo makespans. This is the
	// mechanism behind the Post-processing Jobs result (Section 7.2).
	pairsA := genPairs(4000, 100, 15)
	pairsB := genPairs(4000, 100, 16)
	solo := func(pairs []keyval.Pair) float64 {
		dfs := NewDFS()
		ingest(t, dfs, "in", pairs, 4)
		job := sumJob("J", "in", "out")
		job.Config.NumReduceTasks = 4
		w := singleJobWorkflow(job, "in", "out")
		rep, err := NewEngine(testCluster(), dfs).RunWorkflow(w)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	dfs := NewDFS()
	ingest(t, dfs, "a", pairsA, 4)
	ingest(t, dfs, "b", pairsB, 4)
	ja := sumJob("JA", "a", "outA")
	ja.Config.NumReduceTasks = 4
	jb := sumJob("JB", "b", "outB")
	jb.Config.NumReduceTasks = 4
	w := &wf.Workflow{
		Name: "parallel",
		Jobs: []*wf.Job{ja, jb},
		Datasets: []*wf.Dataset{
			{ID: "a", Base: true}, {ID: "b", Base: true}, {ID: "outA"}, {ID: "outB"},
		},
	}
	rep, err := NewEngine(testCluster(), dfs).RunWorkflow(w)
	if err != nil {
		t.Fatal(err)
	}
	sum := solo(pairsA) + solo(pairsB)
	if rep.Makespan >= sum*0.75 {
		t.Errorf("concurrent jobs did not overlap: makespan %v vs solo sum %v", rep.Makespan, sum)
	}
}

// --- cost primitives ---------------------------------------------------------

func TestSpillRunsAndMergePasses(t *testing.T) {
	if spillRuns(0, 100) != 0 {
		t.Error("no output should spill zero runs")
	}
	if spillRuns(50*MB, 100) != 1 {
		t.Error("output within buffer should spill one run")
	}
	if spillRuns(250*MB, 100) != 3 {
		t.Error("250MB/100MB buffer should spill 3 runs")
	}
	if extraMergePasses(1, 10) != 0 {
		t.Error("single run needs no merge")
	}
	if extraMergePasses(10, 10) != 0 {
		t.Error("runs == factor merges in the final pass")
	}
	if extraMergePasses(100, 10) != 1 {
		t.Error("100 runs at factor 10 need one extra pass")
	}
	if extraMergePasses(5, 1) != 0 {
		t.Error("invalid factor should be safe")
	}
}

func TestCostTimes(t *testing.T) {
	c := DefaultCluster()
	plain := c.DiskTime(90*MB, false)
	if plain != 1.0 {
		t.Errorf("reading 90MB at 90MB/s = %v, want 1.0", plain)
	}
	comp := c.DiskTime(90*MB, true)
	wantDisk := 90.0 * c.CompressRatio / 90.0
	wantCPU := 90.0 * c.CompressCPUSecPerMB
	if diff := comp - (wantDisk + wantCPU); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("compressed read = %v, want %v", comp, wantDisk+wantCPU)
	}
	if c.netTime(45*MB) != 1.0 {
		t.Errorf("netTime wrong")
	}
	if c.sortCPU(1) != 0 {
		t.Error("sorting one record should be free")
	}
	if c.sortCPU(1e6) <= 0 {
		t.Error("sort CPU should be positive")
	}
	if c.DiskTime(0, false) != 0 || c.DiskTime(0, true) != 0 || c.netTime(-1) != 0 {
		t.Error("zero/negative bytes should cost nothing")
	}
	if c.spillIOTime(0, 100, 10, false) != 0 {
		t.Error("no spill for no output")
	}
	one := c.spillIOTime(50*MB, 100, 10, false)
	three := c.spillIOTime(250*MB, 100, 10, false)
	if three <= one {
		t.Error("more spills should cost more")
	}
	if c.mergeIOTime(100*MB, 5, 10) != 0 {
		t.Error("5 runs at factor 10 need no extra pass")
	}
	if c.mergeIOTime(100*MB, 100, 10) <= 0 {
		t.Error("100 runs at factor 10 need extra passes")
	}
}

func TestClusterValidate(t *testing.T) {
	if err := DefaultCluster().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Cluster){
		func(c *Cluster) { c.Nodes = 0 },
		func(c *Cluster) { c.DiskMBps = 0 },
		func(c *Cluster) { c.CompressRatio = 0 },
		func(c *Cluster) { c.CompressRatio = 1.5 },
		func(c *Cluster) { c.VirtualScale = 0 },
		func(c *Cluster) { c.TaskSetupSec = -1 },
	}
	for i, mut := range bad {
		c := DefaultCluster()
		mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid cluster accepted", i)
		}
	}
	if DefaultCluster().TotalMapSlots() != 150 || DefaultCluster().TotalReduceSlots() != 100 {
		t.Error("default cluster slot totals wrong")
	}
}

// --- pipeline chain ----------------------------------------------------------

func TestChainMixedStages(t *testing.T) {
	// [map rekey, reduce sum, map annotate] over a clustered stream.
	stages := []wf.Stage{
		wf.MapStage("rekey", func(k, v keyval.Tuple, emit wf.Emit) {
			emit(keyval.T(k[0].(int64)/10), v)
		}, 1e-6),
		wf.ReduceStage("sum", sumReduce, []int{0}, 1e-6),
		wf.MapStage("annotate", func(k, v keyval.Tuple, emit wf.Emit) {
			emit(k, keyval.T(v[0].(int64), "done"))
		}, 1e-6),
	}
	var out []keyval.Pair
	ch := newChain(stages, func(p keyval.Pair) { out = append(out, p) })
	// Stream clustered by k/10: keys 10,11,12 then 20,21.
	for _, k := range []int64{10, 11, 12, 20, 21} {
		ch.head(keyval.Pair{Key: keyval.T(k), Value: keyval.T(int64(1))})
	}
	ch.close()
	if len(out) != 2 {
		t.Fatalf("out = %d groups, want 2", len(out))
	}
	if out[0].Value[0].(int64) != 3 || out[1].Value[0].(int64) != 2 {
		t.Errorf("group sums wrong: %v", out)
	}
	if out[0].Value[1].(string) != "done" {
		t.Error("post-reduce map stage did not run")
	}
	if ch.stats.InRecords != 5 || ch.stats.OutRecords != 2 {
		t.Errorf("stats in=%d out=%d", ch.stats.InRecords, ch.stats.OutRecords)
	}
	if ch.stats.CPU <= 0 {
		t.Error("no CPU charged")
	}
}

func TestChainGroupingOnPrefix(t *testing.T) {
	// Sorted on (O,Z); group on O only (index 0).
	var out []keyval.Pair
	ch := newChain([]wf.Stage{
		wf.ReduceStage("count", func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
			emit(keyval.T(k[0]), keyval.T(int64(len(vs))))
		}, []int{0}, 0),
	}, func(p keyval.Pair) { out = append(out, p) })
	keys := [][2]int64{{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 2}}
	for _, k := range keys {
		ch.head(keyval.Pair{Key: keyval.T(k[0], k[1]), Value: keyval.T(int64(0))})
	}
	ch.close()
	if len(out) != 2 || out[0].Value[0].(int64) != 3 || out[1].Value[0].(int64) != 2 {
		t.Errorf("prefix grouping wrong: %v", out)
	}
}

func TestReservoirDeterministicAndBounded(t *testing.T) {
	r1 := newReservoir(10, 42)
	r2 := newReservoir(10, 42)
	for i := 0; i < 1000; i++ {
		r1.add(keyval.T(int64(i)))
		r2.add(keyval.T(int64(i)))
	}
	if len(r1.keys) != 10 {
		t.Fatalf("reservoir size = %d", len(r1.keys))
	}
	for i := range r1.keys {
		if keyval.Compare(r1.keys[i], r2.keys[i]) != 0 {
			t.Fatal("reservoir not deterministic")
		}
	}
	seen := map[int64]bool{}
	for _, k := range r1.keys {
		v := k[0].(int64)
		if v < 0 || v >= 1000 || seen[v] {
			t.Fatal("invalid sample")
		}
		seen[v] = true
	}
}

func TestReportHelpers(t *testing.T) {
	rep := &RunReport{Jobs: []*JobReport{
		{JobID: "a", MapTaskSeconds: 5, ReduceTaskSeconds: 3, Start: 0, End: 10},
		{JobID: "b", MapTaskSeconds: 2, Start: 10, End: 15},
	}}
	if rep.Job("a") == nil || rep.Job("c") != nil {
		t.Error("Job lookup wrong")
	}
	if rep.Jobs[0].Span() != 10 {
		t.Error("Span wrong")
	}
	ts := &TagStats{MapByInput: map[string]*PipeStats{
		"a": {InRecords: 1, OutRecords: 2},
		"b": {InRecords: 3, OutRecords: 4},
	}}
	tot := ts.MapTotals()
	if tot.InRecords != 4 || tot.OutRecords != 6 {
		t.Errorf("MapTotals = %+v", tot)
	}
}

func TestOutputPartitionOrderStable(t *testing.T) {
	// Range-partitioned output keeps split-point order and bounds.
	pairs := genPairs(2000, 500, 17)
	dfs := NewDFS()
	ingest(t, dfs, "in", pairs, 4)
	job := sumJob("J1", "in", "out")
	var keys []keyval.Tuple
	for _, p := range pairs {
		keys = append(keys, p.Key)
	}
	points := keyval.EquiDepthSplitPoints(keys, nil, 5)
	job.ReduceGroups[0].Part = keyval.PartitionSpec{Type: keyval.RangePartition, SplitPoints: points}
	w := singleJobWorkflow(job, "in", "out")
	if _, err := NewEngine(testCluster(), dfs).RunWorkflow(w); err != nil {
		t.Fatal(err)
	}
	out, _ := dfs.Get("out")
	if len(out.Parts) != len(points)+1 {
		t.Fatalf("output parts = %d, want %d", len(out.Parts), len(points)+1)
	}
	var all []int64
	for pi, part := range out.Parts {
		iv := part.Bounds.Interval()
		var local []int64
		for _, p := range part.Pairs {
			if !iv.Contains(p.Key[0]) {
				t.Fatalf("partition %d key %v outside bounds %v", pi, p.Key, iv)
			}
			local = append(local, p.Key[0].(int64))
		}
		if !sort.SliceIsSorted(local, func(i, j int) bool { return local[i] < local[j] }) {
			t.Errorf("partition %d not sorted", pi)
		}
		all = append(all, local...)
	}
	if !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
		t.Error("range partitions not globally ordered")
	}
	if out.Layout.PartType != keyval.RangePartition || len(out.Layout.SplitPoints) != len(points) {
		t.Error("output layout missing range metadata")
	}
}
