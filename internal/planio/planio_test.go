package planio

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/optimizer"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/workloads"
)

func passM(k, v keyval.Tuple, emit wf.Emit) { emit(k, v) }

func sumR(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
	var s float64
	for _, v := range vs {
		switch x := v[0].(type) {
		case int64:
			s += float64(x)
		case float64:
			s += x
		}
	}
	emit(k, keyval.T(s))
}

// fullWorkflow exercises every serializable feature: a join job with two
// tagged branches and filters, a consumer with a combiner, range
// partitioning with split points, partition constraints, a profile
// annotation with key samples, and base-dataset layout annotations.
func fullWorkflow() *wf.Workflow {
	rt := keyval.RangePartition
	join := &wf.Job{
		ID: "JOIN", Config: wf.DefaultConfig(), Origin: []string{"JOIN"},
		MapBranches: []wf.MapBranch{
			{
				Tag: 0, Input: "left",
				Stages: []wf.Stage{wf.MapStage("ML", passM, 1e-6)},
				Filter: &wf.Filter{Field: "k", Interval: keyval.Interval{Lo: int64(0), Hi: int64(100)}},
				KeyIn:  []string{"k"}, ValIn: []string{"a"},
				KeyOut: []string{"k"}, ValOut: []string{"a"},
			},
			{
				Tag: 0, Input: "right",
				Stages: []wf.Stage{wf.MapStage("MR", passM, 2e-6)},
				KeyIn:  []string{"k"}, ValIn: []string{"b"},
				KeyOut: []string{"k"}, ValOut: []string{"b"},
			},
		},
		ReduceGroups: []wf.ReduceGroup{{
			Tag:    0,
			Stages: []wf.Stage{wf.ReduceStage("RJ", sumR, []int{0}, 3e-6)},
			Output: "joined",
			Part: keyval.PartitionSpec{
				Type:        rt,
				KeyFields:   []int{0},
				SortFields:  []int{0},
				SplitPoints: []keyval.Tuple{keyval.T(int64(10)), keyval.T(int64(20))},
			},
			Constraints: []wf.PartitionConstraint{{
				CoGroup:     []string{"k"},
				SortPrefix:  []string{"k"},
				RequireType: &rt,
				Reason:      "test pin",
			}},
			KeyIn: []string{"k"}, ValIn: []string{"x"},
			KeyOut: []string{"k"}, ValOut: []string{"sum"},
		}},
	}
	agg := &wf.Job{
		ID: "AGG", Config: wf.Config{NumReduceTasks: 4, SplitSizeMB: 64, SortBufferMB: 32, IOSortFactor: 8, UseCombiner: true, CompressMapOutput: true},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: "joined",
			Stages: []wf.Stage{wf.MapStage("MA", passM, 1e-6)},
			KeyOut: []string{"k"}, ValOut: []string{"sum"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag:      0,
			Stages:   []wf.Stage{wf.ReduceStage("RA", sumR, nil, 1e-6)},
			Combiner: func() *wf.Stage { s := wf.ReduceStage("CA", sumR, nil, 1e-6); return &s }(),
			Output:   "out",
		}},
		Origin: []string{"AGG"},
		Profile: &wf.JobProfile{
			MapSide: map[int]*wf.PipelineProfile{0: {
				Selectivity: 0.5, CPUPerRecord: 1e-6, OutBytesPerRecord: 20, InBytesPerRecord: 40,
				KeySample: []keyval.Tuple{keyval.T(int64(1)), keyval.T("x", 3.5)},
			}},
			MapSideByInput: map[string]*wf.PipelineProfile{"joined#0": {
				Selectivity: 0.5, CPUPerRecord: 1e-6, OutBytesPerRecord: 20, InBytesPerRecord: 40,
			}},
			ReduceSide: map[int]*wf.PipelineProfile{0: {
				Selectivity: 0.1, CPUPerRecord: 2e-6, OutBytesPerRecord: 18, InBytesPerRecord: 20,
				GroupsPerRecord: 0.25, GroupsPerMapRecord: 0.5, CombineReduction: 0.4,
			}},
		},
	}
	return &wf.Workflow{
		Name: "full",
		Jobs: []*wf.Job{join, agg},
		Datasets: []*wf.Dataset{
			{
				ID: "left", Base: true,
				Layout: wf.Layout{
					PartType: keyval.RangePartition, PartFields: []string{"k"}, SortFields: []string{"k"},
					SplitPoints: []keyval.Tuple{keyval.T(int64(50))}, Compressed: true,
				},
				KeyFields: []string{"k"}, ValueFields: []string{"a"},
				EstRecords: 1000, EstBytes: 42000, EstPartitions: 2,
			},
			{ID: "right", Base: true, KeyFields: []string{"k"}, ValueFields: []string{"b"}},
			{ID: "joined", KeyFields: []string{"k"}, ValueFields: []string{"sum"}},
			{ID: "out"},
		},
	}
}

func registryFor(w *wf.Workflow) *Registry {
	reg := NewRegistry()
	reg.RegisterWorkflow(w)
	return reg
}

func TestRoundTripFull(t *testing.T) {
	w := fullWorkflow()
	if err := w.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	data, err := Encode(w)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data, registryFor(w))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	data2, err := Encode(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("round trip changed document:\n--- first ---\n%s\n--- second ---\n%s", data, data2)
	}

	// Spot-check semantic fidelity beyond byte equality.
	j := got.Job("JOIN")
	if j == nil {
		t.Fatal("JOIN job missing after decode")
	}
	if got, want := len(j.MapBranches), 2; got != want {
		t.Fatalf("JOIN branches = %d, want %d", got, want)
	}
	if j.MapBranches[0].Filter == nil || j.MapBranches[0].Filter.Field != "k" {
		t.Fatalf("JOIN branch filter lost: %+v", j.MapBranches[0].Filter)
	}
	g := &j.ReduceGroups[0]
	if g.Part.Type != keyval.RangePartition || len(g.Part.SplitPoints) != 2 {
		t.Fatalf("JOIN partition spec lost: %+v", g.Part)
	}
	if len(g.Constraints) != 1 || g.Constraints[0].RequireType == nil {
		t.Fatalf("JOIN constraints lost: %+v", g.Constraints)
	}
	agg := got.Job("AGG")
	if agg.Profile == nil || agg.Profile.ReduceSide[0] == nil {
		t.Fatal("AGG profile lost")
	}
	if got, want := agg.Profile.ReduceSide[0].CombineReduction, 0.4; got != want {
		t.Fatalf("CombineReduction = %v, want %v", got, want)
	}
	if agg.ReduceGroups[0].Combiner == nil || agg.ReduceGroups[0].Combiner.Name != "CA" {
		t.Fatal("AGG combiner lost")
	}
	ds := got.Dataset("left")
	if ds.Layout.PartType != keyval.RangePartition || !ds.Layout.Compressed || len(ds.Layout.SplitPoints) != 1 {
		t.Fatalf("left layout lost: %+v", ds.Layout)
	}
	if ds.EstRecords != 1000 || ds.EstBytes != 42000 || ds.EstPartitions != 2 {
		t.Fatalf("left size annotations lost: %+v", ds)
	}
}

func TestRoundTripAllWorkloads(t *testing.T) {
	for _, abbr := range workloads.Abbrs() {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			wl, err := workloads.Build(abbr, workloads.Options{SizeFactor: 0.05, Seed: 7})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			data, err := Encode(wl.Workflow)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := Decode(data, registryFor(wl.Workflow))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			data2, err := Encode(got)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(data, data2) {
				t.Fatalf("round trip changed %s document", abbr)
			}
		})
	}
}

// TestImportedPlanExecutesIdentically runs the original and the imported IR
// plan over the same inputs and compares every sink dataset record for
// record: import must preserve execution semantics, not just structure.
func TestImportedPlanExecutesIdentically(t *testing.T) {
	wl, err := workloads.Build("IR", workloads.Options{SizeFactor: 0.05, Seed: 3})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	data, err := Encode(wl.Workflow)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	imported, err := Decode(data, registryFor(wl.Workflow))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	run := func(w *wf.Workflow) map[string][]keyval.Pair {
		dfs := wl.DFS.Clone()
		if _, err := mrsim.NewEngine(wl.Cluster, dfs).RunWorkflow(w); err != nil {
			t.Fatalf("run: %v", err)
		}
		out := map[string][]keyval.Pair{}
		for _, d := range w.SinkDatasets() {
			st, ok := dfs.Get(d.ID)
			if !ok {
				t.Fatalf("sink %s not materialized", d.ID)
			}
			pairs := st.AllPairs()
			keyval.SortPairs(pairs, nil)
			out[d.ID] = pairs
		}
		return out
	}
	want, got := run(wl.Workflow), run(imported)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("imported plan produced different output")
	}
}

// TestDecodeStructureOptimizes checks the paper's deployment story: a plan
// arrives from a remote generator as pure structure + annotations, and
// Stubby can still cost and optimize it without the function bodies.
func TestDecodeStructureOptimizes(t *testing.T) {
	wl, err := workloads.Build("IR", workloads.Options{SizeFactor: 0.05, Seed: 3})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := profile.NewProfiler(wl.Cluster, 0.5, 1).Annotate(wl.Workflow, wl.DFS); err != nil {
		t.Fatalf("profile: %v", err)
	}
	data, err := Encode(wl.Workflow)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	structural, err := DecodeStructure(data)
	if err != nil {
		t.Fatalf("decode structure: %v", err)
	}
	// The optimizer never invokes the black-box functions, so a
	// structure-only plan must lead to exactly the decisions the original
	// in-memory plan leads to.
	resOrig, err := optimizer.New(wl.Cluster, optimizer.Options{Seed: 1}).Optimize(wl.Workflow)
	if err != nil {
		t.Fatalf("optimize original: %v", err)
	}
	resStruct, err := optimizer.New(wl.Cluster, optimizer.Options{Seed: 1}).Optimize(structural)
	if err != nil {
		t.Fatalf("optimize structural: %v", err)
	}
	if lo, ls := len(resOrig.Plan.Jobs), len(resStruct.Plan.Jobs); lo != ls {
		t.Errorf("structural import changed plan shape: %d vs %d jobs", lo, ls)
	}
	if co, cs := resOrig.EstimatedCost, resStruct.EstimatedCost; co != cs {
		t.Errorf("structural import changed estimated cost: %v vs %v", co, cs)
	}
	// The placeholder functions must refuse to execute.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("executing a structure-only stage did not panic")
		}
		if !strings.Contains(r.(string), "structure-only") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	s := structural.Jobs[0].MapBranches[0].Stages[0]
	s.Map(keyval.T(int64(1)), keyval.T("x"), func(_, _ keyval.Tuple) {})
}

func TestMissingFunctionsReported(t *testing.T) {
	w := fullWorkflow()
	data, err := Encode(w)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	reg := NewRegistry()
	reg.RegisterMap("ML", passM) // deliberately partial
	_, err = Decode(data, reg)
	if err == nil {
		t.Fatal("decode with partial registry succeeded")
	}
	me, ok := err.(*MissingError)
	if !ok {
		t.Fatalf("error type %T, want *MissingError: %v", err, err)
	}
	want := []string{"map:MA", "map:MR", "reduce:CA", "reduce:RA", "reduce:RJ"}
	if !sort.StringsAreSorted(me.Names) {
		t.Errorf("missing names not sorted: %v", me.Names)
	}
	if !reflect.DeepEqual(me.Names, want) {
		t.Errorf("missing = %v, want %v", me.Names, want)
	}
}

func TestDecodeRejectsBadDocuments(t *testing.T) {
	w := fullWorkflow()
	good, err := Encode(w)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cases := []struct {
		name string
		data []byte
		frag string
	}{
		{"not json", []byte("nope"), "parse"},
		{"wrong format", bytes.Replace(good, []byte(`"format": "stubby-plan"`), []byte(`"format": "other"`), 1), "not a stubby-plan"},
		{"wrong version", bytes.Replace(good, []byte(`"version": 1`), []byte(`"version": 99`), 1), "unsupported version"},
		{"unknown field", bytes.Replace(good, []byte(`"name": "full"`), []byte(`"name": "full", "bogus": 1`), 1), "parse"},
		{"bad partition type", bytes.Replace(good, []byte(`"type": "range"`), []byte(`"type": "spiral"`), 1), "unknown partition type"},
		{"bad stage kind", bytes.Replace(good, []byte(`"kind": "map"`), []byte(`"kind": "shuffle"`), 1), "unknown kind"},
		{"bad int field", bytes.Replace(good, []byte(`"int": "10"`), []byte(`"int": "ten"`), 1), "int field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data, registryFor(w))
			if err == nil {
				t.Fatal("decode succeeded")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

func TestDecodeRejectsInvalidPlan(t *testing.T) {
	w := fullWorkflow()
	// Break referential integrity: point a branch at a missing dataset.
	w.Jobs[1].MapBranches[0].Input = "missing"
	data, err := Encode(w)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := Decode(data, registryFor(w)); err == nil ||
		!strings.Contains(err.Error(), "decoded plan invalid") {
		t.Fatalf("invalid plan not rejected: %v", err)
	}
}

// TestGroupFieldsNilVsEmpty pins the subtle distinction the codec must
// keep: nil group fields mean "group on the whole key" while empty group
// fields mean "one group per stream" (ops.LocalTopK relies on the latter).
func TestGroupFieldsNilVsEmpty(t *testing.T) {
	build := func(gf []int) *wf.Workflow {
		return &wf.Workflow{
			Name: "gf",
			Jobs: []*wf.Job{{
				ID: "J", Config: wf.DefaultConfig(), Origin: []string{"J"},
				MapBranches: []wf.MapBranch{{Tag: 0, Input: "in",
					Stages: []wf.Stage{wf.MapStage("M", passM, 0)}}},
				ReduceGroups: []wf.ReduceGroup{{Tag: 0, Output: "out",
					Stages: []wf.Stage{wf.ReduceStage("R", sumR, gf, 0)}}},
			}},
			Datasets: []*wf.Dataset{{ID: "in", Base: true}, {ID: "out"}},
		}
	}
	for _, tc := range []struct {
		name string
		gf   []int
	}{
		{"nil", nil},
		{"empty", []int{}},
		{"explicit", []int{1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := build(tc.gf)
			data, err := Encode(w)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := Decode(data, registryFor(w))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			gotGF := got.Jobs[0].ReduceGroups[0].Stages[0].GroupFields
			if (gotGF == nil) != (tc.gf == nil) {
				t.Fatalf("nil-ness changed: sent %#v, got %#v", tc.gf, gotGF)
			}
			if !reflect.DeepEqual(append([]int{}, gotGF...), append([]int{}, tc.gf...)) {
				t.Fatalf("group fields changed: sent %#v, got %#v", tc.gf, gotGF)
			}
		})
	}
}

// randomTuple builds an arbitrary tuple across all supported field types.
func randomTuple(r *rand.Rand) keyval.Tuple {
	n := r.Intn(5)
	t := make(keyval.Tuple, n)
	for i := range t {
		switch r.Intn(5) {
		case 0:
			t[i] = nil
		case 1:
			t[i] = r.Int63() - r.Int63() // spans negatives and > 2^53
		case 2:
			t[i] = r.NormFloat64() * 1e6
		case 3:
			t[i] = randString(r)
		case 4:
			t[i] = r.Intn(2) == 0
		}
	}
	return t
}

func randString(r *rand.Rand) string {
	b := make([]rune, r.Intn(8))
	for i := range b {
		b[i] = rune(32 + r.Intn(1000)) // include multi-byte runes
	}
	return string(b)
}

func TestTupleFieldRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orig := randomTuple(r)
		td := encodeTuple(orig)
		data, err := stdJSONRoundTrip(td)
		if err != nil {
			t.Logf("json: %v", err)
			return false
		}
		got, err := decodeTuple(data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return keyval.Compare(orig, got) == 0 && sameTypes(orig, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func sameTypes(a, b keyval.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if reflect.TypeOf(a[i]) != reflect.TypeOf(b[i]) {
			return false
		}
	}
	return true
}

func stdJSONRoundTrip(td tupleDoc) (tupleDoc, error) {
	data, err := json.Marshal(td)
	if err != nil {
		return nil, err
	}
	var out tupleDoc
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// TestKeyFirstRequest: a request may name its plan by fingerprint instead
// of carrying it; the document is small, round-trips, and must name the
// plan exactly one way.
func TestKeyFirstRequest(t *testing.T) {
	w := fullWorkflow()
	fp := wf.FingerprintWorkflow(w)
	if back, err := wf.ParseFingerprint(fp.String()); err != nil || back != fp {
		t.Fatalf("ParseFingerprint(%s) = %v, %v", fp, back, err)
	}
	for _, bad := range []string{"", "abc", fp.String() + "0", "zz" + fp.String()[2:], "+1" + fp.String()[2:]} {
		if _, err := wf.ParseFingerprint(bad); err == nil {
			t.Errorf("ParseFingerprint(%q) accepted", bad)
		}
	}

	cluster := mrsim.DefaultCluster()
	data, err := EncodeRequest(&Request{Planner: "stubby", Seed: 9, Cluster: cluster, Fingerprint: fp, Workflow: w.Name})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 1024 || bytes.Contains(data, []byte(`"plan"`)) {
		t.Errorf("key-first document is %d bytes: %s", len(data), data)
	}
	req, err := DecodeRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	if req.Plan != nil || req.Fingerprint != fp || req.Workflow != w.Name || req.Planner != "stubby" ||
		req.Seed != 9 || req.Cluster == nil || *req.Cluster != *cluster {
		t.Errorf("key-first round trip lost something: %+v", req)
	}

	full, err := EncodeRequest(&Request{Plan: w})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(full, []byte("planFingerprint")) || bytes.Contains(full, []byte(`"workflow"`)) {
		t.Error("a full document carries key-first members")
	}
	both := bytes.Replace(full, []byte(`"version":1,`), []byte(`"version":1,"planFingerprint":"`+fp.String()+`",`), 1)
	neither := []byte(`{"format":"` + RequestFormatName + `","version":1,"seed":3}`)
	malformed := bytes.Replace(data, []byte(fp.String()), []byte("not-a-fingerprint"), 1)
	for name, doc := range map[string][]byte{"both": both, "neither": neither, "malformed fingerprint": malformed} {
		if bytes.Equal(doc, full) || bytes.Equal(doc, data) {
			t.Fatalf("%s: the document under test was not built", name)
		}
		if _, err := DecodeRequest(doc); err == nil {
			t.Errorf("request naming its plan %s ways decoded", name)
		}
	}
}
