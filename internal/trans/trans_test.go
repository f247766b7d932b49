package trans

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
)

// --- a miniature of the paper's J5/J6/J7 subgraph (Figure 1) ---------------
//
// D4 records: key (O), value (S, Z, P) — orderid, suppid, zipcode, price.
// J5: filter 50<=O<500, regroup by (O,Z), sum P        (K2={O,Z}, K3={O,Z})
// J6: filter 0<=O<100, regroup by (S,Z), sum P         (K2={S,Z})
// J7: consume J5's output, max sum per O               (K2={O})

func m5(key, value keyval.Tuple, emit wf.Emit) {
	o := key[0].(int64)
	if o >= 50 && o < 500 {
		emit(keyval.T(o, value[1]), keyval.T(value[2]))
	}
}

func m6(key, value keyval.Tuple, emit wf.Emit) {
	o := key[0].(int64)
	if o >= 0 && o < 100 {
		emit(keyval.T(value[0], value[1]), keyval.T(value[2]))
	}
}

func sumP(key keyval.Tuple, values []keyval.Tuple, emit wf.Emit) {
	var s int64
	for _, v := range values {
		s += v[0].(int64)
	}
	emit(key, keyval.T(s))
}

func m7(key, value keyval.Tuple, emit wf.Emit) {
	emit(keyval.T(key[0]), value)
}

func maxP(key keyval.Tuple, values []keyval.Tuple, emit wf.Emit) {
	var m int64
	for _, v := range values {
		if v[0].(int64) > m {
			m = v[0].(int64)
		}
	}
	emit(key, keyval.T(m))
}

func jobJ5() *wf.Job {
	return &wf.Job{
		ID: "J5", Config: wf.DefaultConfig(), Origin: []string{"J5"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "D4",
			Stages: []wf.Stage{wf.MapStage("M5", m5, 1e-6)},
			Filter: &wf.Filter{Field: "O", Interval: keyval.Interval{Lo: int64(50), Hi: int64(500)}},
			KeyIn:  []string{"O"}, ValIn: []string{"S", "Z", "P"},
			KeyOut: []string{"O", "Z"}, ValOut: []string{"P"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "D5",
			Stages: []wf.Stage{wf.ReduceStage("R5", sumP, nil, 1e-6)},
			KeyIn:  []string{"O", "Z"}, ValIn: []string{"P"},
			KeyOut: []string{"O", "Z"}, ValOut: []string{"sumP"},
		}},
	}
}

func jobJ6() *wf.Job {
	return &wf.Job{
		ID: "J6", Config: wf.DefaultConfig(), Origin: []string{"J6"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "D4",
			Stages: []wf.Stage{wf.MapStage("M6", m6, 1e-6)},
			Filter: &wf.Filter{Field: "O", Interval: keyval.Interval{Lo: int64(0), Hi: int64(100)}},
			KeyIn:  []string{"O"}, ValIn: []string{"S", "Z", "P"},
			KeyOut: []string{"S", "Z"}, ValOut: []string{"P"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "D6",
			Stages: []wf.Stage{wf.ReduceStage("R6", sumP, nil, 1e-6)},
			KeyIn:  []string{"S", "Z"}, ValIn: []string{"P"},
			KeyOut: []string{"S", "Z"}, ValOut: []string{"sumP"},
		}},
	}
}

func jobJ7() *wf.Job {
	return &wf.Job{
		ID: "J7", Config: wf.DefaultConfig(), Origin: []string{"J7"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "D5",
			Stages: []wf.Stage{wf.MapStage("M7", m7, 1e-6)},
			KeyIn:  []string{"O", "Z"}, ValIn: []string{"sumP"},
			KeyOut: []string{"O"}, ValOut: []string{"sumP"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "D7",
			Stages: []wf.Stage{wf.ReduceStage("R7", maxP, nil, 1e-6)},
			KeyIn:  []string{"O"}, ValIn: []string{"sumP"},
			KeyOut: []string{"O"}, ValOut: []string{"maxP"},
		}},
	}
}

// exampleWorkflow returns D4 -> J5 -> D5 -> J7 -> D7, plus optionally J6.
func exampleWorkflow(withJ6 bool) *wf.Workflow {
	w := &wf.Workflow{
		Name: "fig1-mini",
		Jobs: []*wf.Job{jobJ5(), jobJ7()},
		Datasets: []*wf.Dataset{
			{ID: "D4", Base: true, KeyFields: []string{"O"}, ValueFields: []string{"S", "Z", "P"}},
			{ID: "D5", KeyFields: []string{"O", "Z"}, ValueFields: []string{"sumP"}},
			{ID: "D7", KeyFields: []string{"O"}, ValueFields: []string{"maxP"}},
		},
	}
	if withJ6 {
		w.Jobs = append(w.Jobs, jobJ6())
		w.Datasets = append(w.Datasets, &wf.Dataset{ID: "D6", KeyFields: []string{"S", "Z"}, ValueFields: []string{"sumP"}})
	}
	return w
}

func genD4(n int, seed int64) []keyval.Pair {
	r := rand.New(rand.NewSource(seed))
	out := make([]keyval.Pair, n)
	for i := range out {
		out[i] = keyval.Pair{
			Key:   keyval.T(int64(r.Intn(600))),
			Value: keyval.T(int64(r.Intn(20)), int64(r.Intn(10)), int64(r.Intn(100))),
		}
	}
	return out
}

func newDFS(t *testing.T, pairs []keyval.Pair) *mrsim.DFS {
	t.Helper()
	dfs := mrsim.NewDFS()
	err := dfs.Ingest("D4", pairs, mrsim.IngestSpec{
		NumPartitions: 6,
		KeyFields:     []string{"O"},
		Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"O"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dfs
}

func testCluster() *mrsim.Cluster {
	c := mrsim.DefaultCluster()
	c.VirtualScale = 2000
	return c
}

// runAndCollect executes the workflow and returns each sink dataset's
// contents as a sorted multiset.
func runAndCollect(t *testing.T, w *wf.Workflow, dfs *mrsim.DFS) map[string][]keyval.Pair {
	t.Helper()
	if err := w.Validate(); err != nil {
		t.Fatalf("invalid plan %s: %v", w.Name, err)
	}
	if _, err := mrsim.NewEngine(testCluster(), dfs).RunWorkflow(w); err != nil {
		t.Fatalf("run %s: %v", w.Name, err)
	}
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

// assertEquivalent checks the plan-equivalence invariant: both plans yield
// identical sink datasets over the same input.
func assertEquivalent(t *testing.T, before, after *wf.Workflow, pairs []keyval.Pair) {
	t.Helper()
	a := runAndCollect(t, before, newDFS(t, pairs))
	b := runAndCollect(t, after, newDFS(t, pairs))
	if len(a) != len(b) {
		t.Fatalf("sink sets differ: %d vs %d", len(a), len(b))
	}
	for ds, pa := range a {
		pb, ok := b[ds]
		if !ok {
			t.Fatalf("sink %s missing from transformed plan", ds)
		}
		if len(pa) != len(pb) {
			t.Fatalf("sink %s: %d vs %d records", ds, len(pa), len(pb))
		}
		for i := range pa {
			if keyval.Compare(pa[i].Key, pb[i].Key) != 0 || keyval.Compare(pa[i].Value, pb[i].Value) != 0 {
				t.Fatalf("sink %s differs at %d: %v=%v vs %v=%v",
					ds, i, pa[i].Key, pa[i].Value, pb[i].Key, pb[i].Value)
			}
		}
	}
}

// --- intra-job vertical packing ---------------------------------------------

func TestIntraVerticalOneToOne(t *testing.T) {
	w := exampleWorkflow(false)
	if err := CanIntraVertical(w, "J7"); err != nil {
		t.Fatalf("preconditions should hold: %v", err)
	}
	after, err := IntraVertical(w, "J7")
	if err != nil {
		t.Fatal(err)
	}
	// Postconditions: J5 partitions on {O} (index 0 of (O,Z)) and sorts on
	// (O,Z); J7 is map-only and aligned.
	j5 := after.Job("J5")
	spec := j5.ReduceGroups[0].Part
	if len(spec.KeyFields) != 1 || spec.KeyFields[0] != 0 {
		t.Errorf("J5 partition fields = %v, want [0] ({O})", spec.KeyFields)
	}
	if len(spec.SortFields) != 2 || spec.SortFields[0] != 0 || spec.SortFields[1] != 1 {
		t.Errorf("J5 sort fields = %v, want [0 1] ({O,Z})", spec.SortFields)
	}
	if len(j5.ReduceGroups[0].Constraints) != 1 {
		t.Error("J5 should carry a partition constraint")
	}
	j7 := after.Job("J7")
	if !j7.MapOnly() || !j7.ReduceGroups[0].RunsMapSide || !j7.AlignMapToInput {
		t.Error("J7 should be an aligned map-only job with a map-side group")
	}
	// Original untouched.
	if w.Job("J7").MapOnly() {
		t.Error("transformation mutated the input plan")
	}
	assertEquivalent(t, w, after, genD4(6000, 1))
}

func TestIntraVerticalPreconditionFailures(t *testing.T) {
	cases := []struct {
		name string
		mut  func(w *wf.Workflow)
	}{
		{"missing consumer K2 schema", func(w *wf.Workflow) { w.Job("J7").ReduceGroups[0].KeyIn = nil }},
		{"missing branch schema", func(w *wf.Workflow) { w.Job("J7").MapBranches[0].KeyOut = nil }},
		{"K2 not flowing through producer reduce output", func(w *wf.Workflow) {
			w.Job("J5").ReduceGroups[0].KeyOut = []string{"Z"} // O dropped
		}},
		{"K2 not flowing through producer reduce input", func(w *wf.Workflow) {
			w.Job("J5").ReduceGroups[0].KeyIn = []string{"Z", "Q"}
		}},
		{"K2 not in consumer map input", func(w *wf.Workflow) {
			w.Job("J7").MapBranches[0].KeyIn = []string{"X", "Z"}
		}},
		{"producer constraint pins range type", func(w *wf.Workflow) {
			rt := keyval.RangePartition
			w.Job("J5").ReduceGroups[0].Constraints = []wf.PartitionConstraint{{RequireType: &rt, Reason: "sort job"}}
		}},
		{"already map-only", func(w *wf.Workflow) {
			w.Job("J7").ReduceGroups[0].Stages = nil
		}},
	}
	for _, c := range cases {
		w := exampleWorkflow(false)
		c.mut(w)
		if err := CanIntraVertical(w, "J7"); err == nil {
			t.Errorf("%s: preconditions passed, want failure", c.name)
		}
	}
}

func TestIntraVerticalRejectsFanOut(t *testing.T) {
	// A second consumer of D5 breaks the one-to-one requirement.
	w := exampleWorkflow(false)
	extra := jobJ7()
	extra.ID = "J8"
	extra.Origin = []string{"J8"}
	extra.ReduceGroups[0].Output = "D8"
	w.Jobs = append(w.Jobs, extra)
	w.Datasets = append(w.Datasets, &wf.Dataset{ID: "D8"})
	if err := CanIntraVertical(w, "J7"); err == nil {
		t.Error("fan-out dataset accepted for intra-vertical packing")
	}
}

func TestIntraVerticalNoneToOne(t *testing.T) {
	// J7 reading a base dataset whose layout already satisfies grouping.
	w := &wf.Workflow{
		Name: "none-to-one",
		Jobs: []*wf.Job{jobJ7()},
		Datasets: []*wf.Dataset{
			{ID: "D5", Base: true, KeyFields: []string{"O", "Z"}, ValueFields: []string{"sumP"},
				Layout: wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"O"}, SortFields: []string{"O", "Z"}}},
			{ID: "D7"},
		},
	}
	if err := CanIntraVertical(w, "J7"); err != nil {
		t.Fatalf("none-to-one preconditions should hold: %v", err)
	}
	after, err := IntraVertical(w, "J7")
	if err != nil {
		t.Fatal(err)
	}
	if !after.Job("J7").MapOnly() {
		t.Error("J7 should become map-only")
	}
	// Execute both against a pre-partitioned base dataset.
	r := rand.New(rand.NewSource(2))
	var pairs []keyval.Pair
	for i := 0; i < 4000; i++ {
		pairs = append(pairs, keyval.Pair{
			Key:   keyval.T(int64(r.Intn(100)), int64(r.Intn(10))),
			Value: keyval.T(int64(r.Intn(50))),
		})
	}
	mk := func() *mrsim.DFS {
		dfs := mrsim.NewDFS()
		if err := dfs.Ingest("D5", pairs, mrsim.IngestSpec{
			NumPartitions: 5,
			KeyFields:     []string{"O", "Z"},
			Layout: wf.Layout{PartType: keyval.HashPartition,
				PartFields: []string{"O"}, SortFields: []string{"O", "Z"}},
		}); err != nil {
			t.Fatal(err)
		}
		return dfs
	}
	a := runAndCollect(t, w, mk())
	b := runAndCollect(t, after, mk())
	pa, pb := a["D7"], b["D7"]
	if len(pa) == 0 || len(pa) != len(pb) {
		t.Fatalf("results differ in size: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if keyval.Compare(pa[i].Key, pb[i].Key) != 0 || keyval.Compare(pa[i].Value, pb[i].Value) != 0 {
			t.Fatalf("results differ at %d", i)
		}
	}
	// Unsorted base layout must be rejected.
	w2 := w.Clone()
	w2.Dataset("D5").Layout.SortFields = nil
	if err := CanIntraVertical(w2, "J7"); err == nil {
		t.Error("unsorted base layout accepted")
	}
}

// --- inter-job vertical packing ----------------------------------------------

func TestInterVerticalAfterIntra(t *testing.T) {
	// The Figure 4 sequence: intra(J7) then inter(J5, J7) leaves one job
	// whose reduce pipeline is [R5, M7, R7].
	w := exampleWorkflow(false)
	mid, err := IntraVertical(w, "J7")
	if err != nil {
		t.Fatal(err)
	}
	if err := CanInterVertical(mid, "J5", "J7"); err != nil {
		t.Fatalf("inter preconditions should hold: %v", err)
	}
	after, err := InterVertical(mid, "J5", "J7")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Jobs) != 1 {
		t.Fatalf("want 1 job after packing, got %d", len(after.Jobs))
	}
	packed := after.Jobs[0]
	if packed.ID != "J5+J7" {
		t.Errorf("packed ID = %s", packed.ID)
	}
	stages := packed.ReduceGroups[0].Stages
	if len(stages) != 3 || stages[0].Name != "R5" || stages[1].Name != "M7" || stages[2].Name != "R7" {
		names := make([]string, len(stages))
		for i, s := range stages {
			names[i] = s.Name
		}
		t.Fatalf("reduce pipeline = %v, want [R5 M7 R7]", names)
	}
	if after.Dataset("D5") != nil {
		t.Error("intermediate D5 should be eliminated")
	}
	if packed.ReduceGroups[0].Output != "D7" {
		t.Error("packed job should write D7")
	}
	assertEquivalent(t, w, after, genD4(6000, 3))
}

func TestInterVerticalMapOnlyProducer(t *testing.T) {
	// A map-only scan job feeding J5 merges into J5's map pipeline.
	scan := &wf.Job{
		ID: "J0", Config: wf.DefaultConfig(), Origin: []string{"J0"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "D0",
			Stages: []wf.Stage{wf.MapStage("M0", func(k, v keyval.Tuple, emit wf.Emit) {
				emit(k, keyval.T(v[0], v[1], v[2]))
			}, 1e-6)},
			KeyIn: []string{"O"}, ValIn: []string{"S", "Z", "P"},
			KeyOut: []string{"O"}, ValOut: []string{"S", "Z", "P"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "D4",
			KeyOut: []string{"O"}, ValOut: []string{"S", "Z", "P"},
		}},
	}
	w := exampleWorkflow(false)
	w.Jobs = append([]*wf.Job{scan}, w.Jobs...)
	w.Datasets = append(w.Datasets, &wf.Dataset{ID: "D0", Base: true, KeyFields: []string{"O"}, ValueFields: []string{"S", "Z", "P"}})
	w.Dataset("D4").Base = false

	if err := CanInterVertical(w, "J0", "J5"); err != nil {
		t.Fatalf("preconditions should hold: %v", err)
	}
	after, err := InterVertical(w, "J0", "J5")
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Jobs) != 2 {
		t.Fatalf("want 2 jobs, got %d", len(after.Jobs))
	}
	merged := after.Job("J0+J5")
	if merged == nil {
		t.Fatal("merged job missing")
	}
	if merged.MapBranches[0].Input != "D0" {
		t.Error("merged job should read D0 directly")
	}
	if merged.MapBranches[0].Stages[0].Name != "M0" || merged.MapBranches[0].Stages[1].Name != "M5" {
		t.Error("producer stages should precede consumer stages")
	}
	if after.Dataset("D4") != nil {
		t.Error("D4 should be eliminated")
	}
	// Execute both.
	pairs := genD4(5000, 4)
	mk := func() *mrsim.DFS {
		dfs := mrsim.NewDFS()
		if err := dfs.Ingest("D0", pairs, mrsim.IngestSpec{NumPartitions: 6, KeyFields: []string{"O"},
			Layout: wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"O"}}}); err != nil {
			t.Fatal(err)
		}
		return dfs
	}
	a := runAndCollect(t, w, mk())
	b := runAndCollect(t, after, mk())
	if len(a["D7"]) == 0 || len(a["D7"]) != len(b["D7"]) {
		t.Fatal("outputs differ")
	}
}

func TestInterVerticalPreconditionFailures(t *testing.T) {
	w := exampleWorkflow(false)
	// Neither job map-only.
	if err := CanInterVertical(w, "J5", "J7"); err == nil {
		t.Error("neither-map-only accepted")
	}
	// Not linked.
	if err := CanInterVertical(w, "J7", "J5"); err == nil {
		t.Error("reverse link accepted")
	}
	// Fan-out blocks inter packing.
	mid, _ := IntraVertical(w, "J7")
	extra := jobJ6()
	extra.MapBranches[0].Input = "D5"
	mid2 := mid.Clone()
	mid2.Jobs = append(mid2.Jobs, extra)
	mid2.Datasets = append(mid2.Datasets, &wf.Dataset{ID: "D6"})
	if err := CanInterVertical(mid2, "J5", "J7"); err == nil {
		t.Error("fan-out accepted for inter packing")
	}
}

func TestInterVerticalReplicate(t *testing.T) {
	// Map-only scan feeding two consumers is replicated into both.
	scan := &wf.Job{
		ID: "J0", Config: wf.DefaultConfig(), Origin: []string{"J0"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "D0",
			Stages: []wf.Stage{wf.MapStage("M0", func(k, v keyval.Tuple, emit wf.Emit) { emit(k, v) }, 1e-6)},
			KeyIn:  []string{"O"}, ValIn: []string{"S", "Z", "P"},
			KeyOut: []string{"O"}, ValOut: []string{"S", "Z", "P"},
		}},
		ReduceGroups: []wf.ReduceGroup{{Tag: 0, Output: "D4", KeyOut: []string{"O"}, ValOut: []string{"S", "Z", "P"}}},
	}
	w := exampleWorkflow(true) // includes J6
	w.Jobs = append([]*wf.Job{scan}, w.Jobs...)
	w.Datasets = append(w.Datasets, &wf.Dataset{ID: "D0", Base: true, KeyFields: []string{"O"}, ValueFields: []string{"S", "Z", "P"}})
	w.Dataset("D4").Base = false

	if err := CanInterVerticalReplicate(w, "J0"); err != nil {
		t.Fatalf("replicate preconditions should hold: %v", err)
	}
	after, err := InterVerticalReplicate(w, "J0")
	if err != nil {
		t.Fatal(err)
	}
	if after.Job("J0") != nil || after.Dataset("D4") != nil {
		t.Error("producer and link should be gone")
	}
	for _, id := range []string{"J5", "J6"} {
		j := after.Job(id)
		if j.MapBranches[0].Input != "D0" {
			t.Errorf("%s should read D0", id)
		}
		if j.MapBranches[0].Stages[0].Name != "M0" {
			t.Errorf("%s should start with replicated M0", id)
		}
	}
	pairs := genD4(5000, 5)
	mk := func() *mrsim.DFS {
		dfs := mrsim.NewDFS()
		if err := dfs.Ingest("D0", pairs, mrsim.IngestSpec{NumPartitions: 6, KeyFields: []string{"O"},
			Layout: wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"O"}}}); err != nil {
			t.Fatal(err)
		}
		return dfs
	}
	a := runAndCollect(t, w, mk())
	b := runAndCollect(t, after, mk())
	for _, ds := range []string{"D6", "D7"} {
		if len(a[ds]) != len(b[ds]) {
			t.Fatalf("%s differs: %d vs %d", ds, len(a[ds]), len(b[ds]))
		}
	}
	// Single consumer: replication refused.
	if err := CanInterVerticalReplicate(exampleWorkflow(false), "J5"); err == nil {
		t.Error("non-map-only or single-consumer producer accepted")
	}
}

// --- horizontal packing -------------------------------------------------------

func TestHorizontalSameInput(t *testing.T) {
	w := exampleWorkflow(true)
	// J5 and J6 read D4 concurrently.
	if err := CanHorizontal(w, []string{"J5", "J6"}, true); err != nil {
		t.Fatalf("preconditions should hold: %v", err)
	}
	after, err := Horizontal(w, []string{"J5", "J6"}, true)
	if err != nil {
		t.Fatal(err)
	}
	packed := after.Job("J5+J6")
	if packed == nil {
		t.Fatal("packed job missing")
	}
	if len(packed.MapBranches) != 2 || len(packed.ReduceGroups) != 2 {
		t.Fatalf("packed job has %d branches / %d groups", len(packed.MapBranches), len(packed.ReduceGroups))
	}
	if packed.MapBranches[0].Tag == packed.MapBranches[1].Tag {
		t.Error("tags not distinct")
	}
	outs := packed.Outputs()
	if len(outs) != 2 {
		t.Errorf("packed outputs = %v", outs)
	}
	assertEquivalent(t, w, after, genD4(6000, 6))
	// The packed job blocks further vertical packing of J7 (the combined
	// K2 effect, Section 4).
	if err := CanIntraVertical(after, "J7"); err == nil {
		t.Error("intra-vertical should be blocked after horizontal packing")
	}
}

func TestHorizontalPreconditionFailures(t *testing.T) {
	w := exampleWorkflow(true)
	if err := CanHorizontal(w, []string{"J5"}, true); err == nil {
		t.Error("single job accepted")
	}
	if err := CanHorizontal(w, []string{"J5", "J5"}, true); err == nil {
		t.Error("duplicate job accepted")
	}
	if err := CanHorizontal(w, []string{"J5", "J7"}, false); err == nil {
		t.Error("dependent jobs accepted")
	}
	if err := CanHorizontal(w, []string{"J6", "J7"}, true); err == nil {
		t.Error("different inputs accepted under same-input rule")
	}
	if err := CanHorizontal(w, []string{"J6", "J7"}, false); err != nil {
		t.Errorf("concurrently-runnable different-input jobs rejected: %v", err)
	}
	aligned := exampleWorkflow(true)
	aligned.Job("J5").AlignMapToInput = true
	if err := CanHorizontal(aligned, []string{"J5", "J6"}, true); err == nil {
		t.Error("aligned job accepted for horizontal packing")
	}
}

func TestHorizontalDifferentInputsExtension(t *testing.T) {
	// Pack J6 and J7 (different inputs) via the extension; per-branch input
	// routing keeps results correct.
	w := exampleWorkflow(true)
	after, err := Horizontal(w, []string{"J6", "J7"}, false)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, w, after, genD4(6000, 7))
}

// --- partition function transformation ----------------------------------------

func TestApplyPartitionSpecRangeEquivalence(t *testing.T) {
	w := exampleWorkflow(false)
	spec := keyval.PartitionSpec{
		Type:        keyval.RangePartition,
		KeyFields:   []int{0, 1},
		SplitPoints: []keyval.Tuple{keyval.T(int64(100), int64(5)), keyval.T(int64(300), int64(2))},
	}
	after, err := ApplyPartitionSpec(w, "J5", 0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if after.Job("J5").ReduceGroups[0].Part.Type != keyval.RangePartition {
		t.Error("spec not applied")
	}
	assertEquivalent(t, w, after, genD4(6000, 8))
}

func TestApplyPartitionSpecRejections(t *testing.T) {
	w := exampleWorkflow(false)
	if _, err := ApplyPartitionSpec(w, "nope", 0, keyval.PartitionSpec{}); err == nil {
		t.Error("unknown job accepted")
	}
	if _, err := ApplyPartitionSpec(w, "J5", 9, keyval.PartitionSpec{}); err == nil {
		t.Error("unknown tag accepted")
	}
	bad := keyval.PartitionSpec{Type: keyval.HashPartition, KeyFields: []int{7}}
	if _, err := ApplyPartitionSpec(w, "J5", 0, bad); err == nil {
		t.Error("out-of-range key field accepted")
	}
	// Violating a packing constraint.
	mid, _ := IntraVertical(w, "J7")
	zOnly := keyval.PartitionSpec{Type: keyval.HashPartition, KeyFields: []int{1}} // partition on Z
	if _, err := ApplyPartitionSpec(mid, "J5", 0, zOnly); err == nil {
		t.Error("spec violating intra-packing constraint accepted")
	}
	// Sort order that breaks grouping contiguity.
	broken := keyval.PartitionSpec{Type: keyval.HashPartition, SortFields: []int{1}}
	if _, err := ApplyPartitionSpec(w, "J5", 0, broken); err == nil {
		t.Error("grouping-breaking sort accepted")
	}
}

func TestEnumeratePartitionSpecs(t *testing.T) {
	w := exampleWorkflow(true)
	// Give J5 a profile with a key sample so equi-depth points exist.
	j5 := w.Job("J5")
	j5.Profile = &wf.JobProfile{}
	var sample []keyval.Tuple
	for i := 0; i < 100; i++ {
		sample = append(sample, keyval.T(int64(50+i*4), int64(i%10)))
	}
	j5.Profile.SetMapProfile(0, "D4", &wf.PipelineProfile{Selectivity: 1, KeySample: sample})
	j5.Config.NumReduceTasks = 4
	specs := EnumeratePartitionSpecs(w, "J5", 0, 0)
	if len(specs) == 0 {
		t.Fatal("no specs proposed")
	}
	foundRange := false
	for _, s := range specs {
		if s.Type == keyval.RangePartition && len(s.SplitPoints) > 0 {
			foundRange = true
		}
		if _, err := ApplyPartitionSpec(w, "J5", 0, s); err != nil {
			t.Errorf("proposed spec rejected by apply: %v", err)
		}
	}
	if !foundRange {
		t.Error("no range spec proposed despite key sample")
	}
	// All proposed specs keep results identical.
	for i, s := range specs {
		after, err := ApplyPartitionSpec(w, "J5", 0, s)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			assertEquivalent(t, w, after, genD4(4000, 9))
		}
	}
}

func TestEnumerateFilterAlignedSpecs(t *testing.T) {
	// J4'-style producer whose consumers J5/J6 filter on O: expect a
	// range spec on O with split points at the filter boundaries (Fig. 7).
	w := exampleWorkflow(true)
	producer := &wf.Job{
		ID: "J4", Config: wf.DefaultConfig(), Origin: []string{"J4"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "Dsrc",
			Stages: []wf.Stage{wf.MapStage("M4", func(k, v keyval.Tuple, emit wf.Emit) { emit(k, v) }, 1e-6)},
			KeyIn:  []string{"O"}, ValIn: []string{"S", "Z", "P"},
			KeyOut: []string{"O"}, ValOut: []string{"S", "Z", "P"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: "D4",
			Stages: []wf.Stage{wf.ReduceStage("R4", func(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
				for _, v := range vs {
					emit(k, v)
				}
			}, nil, 1e-6)},
			KeyIn: []string{"O"}, ValIn: []string{"S", "Z", "P"},
			KeyOut: []string{"O"}, ValOut: []string{"S", "Z", "P"},
		}},
	}
	var sample []keyval.Tuple
	for i := 0; i < 200; i++ {
		sample = append(sample, keyval.T(int64(i*3)))
	}
	producer.Profile = &wf.JobProfile{}
	producer.Profile.SetMapProfile(0, "Dsrc", &wf.PipelineProfile{Selectivity: 1, KeySample: sample})
	w.Jobs = append(w.Jobs, producer)
	w.Datasets = append(w.Datasets, &wf.Dataset{ID: "Dsrc", Base: true, KeyFields: []string{"O"}})
	w.Dataset("D4").Base = false

	specs := EnumeratePartitionSpecs(w, "J4", 0, 0)
	var aligned *keyval.PartitionSpec
	for i := range specs {
		s := specs[i]
		if s.Type != keyval.RangePartition {
			continue
		}
		for _, sp := range s.SplitPoints {
			if keyval.Compare(sp, keyval.T(int64(100))) == 0 {
				aligned = &specs[i]
			}
		}
	}
	if aligned == nil {
		t.Fatal("no filter-aligned range spec proposed (expected split at O=100)")
	}
}

// --- layout and helper logic ----------------------------------------------------

func TestLayoutSatisfiesGrouping(t *testing.T) {
	cases := []struct {
		layout wf.Layout
		k2     []string
		want   bool
	}{
		{wf.Layout{PartFields: []string{"O"}, SortFields: []string{"O", "Z"}}, []string{"O", "Z"}, true},
		{wf.Layout{PartFields: []string{"O"}, SortFields: []string{"O"}}, []string{"O"}, true},
		{wf.Layout{PartFields: []string{"O"}, SortFields: []string{"O"}}, []string{"O", "Z"}, false}, // Z not sorted
		{wf.Layout{PartFields: []string{"Q"}, SortFields: []string{"O"}}, []string{"O"}, false},      // partition outside K2
		{wf.Layout{SortFields: []string{"O"}}, []string{"O"}, false},                                 // unpartitioned
		{wf.Layout{PartFields: []string{"O"}, SortFields: []string{"Z", "O"}}, []string{"O"}, false}, // wrong prefix
		{wf.Layout{PartFields: []string{"O"}}, nil, false},
	}
	for i, c := range cases {
		if got := LayoutSatisfiesGrouping(c.layout, c.k2); got != c.want {
			t.Errorf("case %d: got %v, want %v", i, got, c.want)
		}
	}
}

func TestStaticLayout(t *testing.T) {
	w := exampleWorkflow(false)
	// Base dataset: annotation.
	w.Dataset("D4").Layout = wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"O"}}
	if got := StaticLayout(w, "D4"); len(got.PartFields) != 1 || got.PartFields[0] != "O" {
		t.Errorf("base layout = %v", got)
	}
	// Produced dataset: derived from producer spec.
	mid, _ := IntraVertical(w, "J7")
	l := StaticLayout(mid, "D5")
	if len(l.PartFields) != 1 || l.PartFields[0] != "O" {
		t.Errorf("derived D5 partition fields = %v, want [O]", l.PartFields)
	}
	if len(l.SortFields) != 2 || l.SortFields[0] != "O" || l.SortFields[1] != "Z" {
		t.Errorf("derived D5 sort fields = %v, want [O Z]", l.SortFields)
	}
	if got := StaticLayout(w, "missing"); len(got.PartFields) != 0 {
		t.Error("missing dataset should have empty layout")
	}
}

func TestPathExistsAndConcurrent(t *testing.T) {
	w := exampleWorkflow(true)
	if !PathExists(w, "J5", "J7") {
		t.Error("J5 -> J7 path missed")
	}
	if PathExists(w, "J7", "J5") {
		t.Error("phantom reverse path")
	}
	if PathExists(w, "J6", "J7") {
		t.Error("phantom J6 -> J7 path")
	}
	if !ConcurrentlyRunnable(w, []string{"J5", "J6"}) {
		t.Error("J5 and J6 should be concurrent")
	}
	if ConcurrentlyRunnable(w, []string{"J5", "J7"}) {
		t.Error("J5 and J7 are dependent")
	}
}

func TestProfileAdjustedThroughPacking(t *testing.T) {
	// Profiles attached before packing survive with composed statistics.
	w := exampleWorkflow(false)
	pairs := genD4(6000, 10)
	dfs := newDFS(t, pairs)
	if err := profile.NewProfiler(testCluster(), 1.0, 1).Annotate(w, dfs); err != nil {
		t.Fatal(err)
	}
	mid, err := IntraVertical(w, "J7")
	if err != nil {
		t.Fatal(err)
	}
	after, err := InterVertical(mid, "J5", "J7")
	if err != nil {
		t.Fatal(err)
	}
	packed := after.Jobs[0]
	if packed.Profile == nil {
		t.Fatal("packed job lost its profile")
	}
	rp := packed.Profile.ReduceProfile(packed.ReduceGroups[0].Tag)
	if rp == nil {
		t.Fatal("no adjusted reduce profile")
	}
	// Composed selectivity: R5 then M7 then R7 collapses (O,Z) sums to a
	// max per O — strictly fewer outputs than inputs.
	if rp.Selectivity <= 0 || rp.Selectivity >= 1 {
		t.Errorf("adjusted selectivity = %v, want in (0,1)", rp.Selectivity)
	}
	if rp.CPUPerRecord <= 0 {
		t.Error("adjusted CPU missing")
	}
}

// sortedIDs returns a sorted copy.
func sortedIDs(ids []string) []string {
	out := append([]string(nil), ids...)
	sort.Strings(out)
	return out
}

func TestMergeHelpers(t *testing.T) {
	if got := mergeIDs("a", "b", "c"); got != "a+b+c" {
		t.Errorf("mergeIDs = %s", got)
	}
	a := &wf.Job{Origin: []string{"x", "y"}}
	b := &wf.Job{Origin: []string{"y", "z"}}
	if got := mergeOrigins(a, b); len(got) != 3 {
		t.Errorf("mergeOrigins = %v", got)
	}
	if got := sortedIDs([]string{"b", "a"}); got[0] != "a" || got[1] != "b" {
		t.Errorf("sortedIDs = %v", got)
	}
}
