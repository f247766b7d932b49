package wf

import (
	"strings"
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
)

func identityMap(key, value keyval.Tuple, emit Emit) { emit(key, value) }
func identityReduce(key keyval.Tuple, values []keyval.Tuple, emit Emit) {
	for _, v := range values {
		emit(key, v)
	}
}

// simpleJob builds a one-branch one-group job reading in and writing out.
func simpleJob(id, in, out string) *Job {
	return &Job{
		ID:     id,
		Config: DefaultConfig(),
		Origin: []string{id},
		MapBranches: []MapBranch{{
			Tag:    0,
			Input:  in,
			Stages: []Stage{MapStage("M_"+id, identityMap, 1e-6)},
		}},
		ReduceGroups: []ReduceGroup{{
			Tag:    0,
			Output: out,
			Stages: []Stage{ReduceStage("R_"+id, identityReduce, nil, 1e-6)},
		}},
	}
}

func ds(id string, base bool) *Dataset { return &Dataset{ID: id, Base: base} }

// chainWorkflow builds base -> J1 -> d1 -> J2 -> d2.
func chainWorkflow() *Workflow {
	return &Workflow{
		Name:     "chain",
		Jobs:     []*Job{simpleJob("J1", "base", "d1"), simpleJob("J2", "d1", "d2")},
		Datasets: []*Dataset{ds("base", true), ds("d1", false), ds("d2", false)},
	}
}

// diamondWorkflow builds the Figure 1 shape in miniature:
// base -> J1 -> d1 -> {J2, J3} (one-to-many), then J2,J3 -> J4 (many-to-one).
func diamondWorkflow() *Workflow {
	j4 := &Job{
		ID:     "J4",
		Config: DefaultConfig(),
		Origin: []string{"J4"},
		MapBranches: []MapBranch{
			{Tag: 0, Input: "d2", Stages: []Stage{MapStage("M4a", identityMap, 1e-6)}},
			{Tag: 0, Input: "d3", Stages: []Stage{MapStage("M4b", identityMap, 1e-6)}},
		},
		ReduceGroups: []ReduceGroup{{
			Tag: 0, Output: "d4",
			Stages: []Stage{ReduceStage("R4", identityReduce, nil, 1e-6)},
		}},
	}
	return &Workflow{
		Name: "diamond",
		Jobs: []*Job{
			simpleJob("J1", "base", "d1"),
			simpleJob("J2", "d1", "d2"),
			simpleJob("J3", "d1", "d3"),
			j4,
		},
		Datasets: []*Dataset{
			ds("base", true), ds("d1", false), ds("d2", false), ds("d3", false), ds("d4", false),
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	for _, w := range []*Workflow{chainWorkflow(), diamondWorkflow()} {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(w *Workflow)
	}{
		{"duplicate job", func(w *Workflow) { w.Jobs = append(w.Jobs, simpleJob("J1", "base", "dX")) }},
		{"duplicate dataset", func(w *Workflow) { w.Datasets = append(w.Datasets, ds("d1", false)) }},
		{"unknown input", func(w *Workflow) { w.Jobs[0].MapBranches[0].Input = "nope" }},
		{"unknown output", func(w *Workflow) { w.Jobs[0].ReduceGroups[0].Output = "nope" }},
		{"base with producer", func(w *Workflow) { w.Dataset("d1").Base = true }},
		{"orphan intermediate", func(w *Workflow) { w.Datasets = append(w.Datasets, ds("dz", false)) }},
		{"two producers", func(w *Workflow) { w.Jobs[1].ReduceGroups[0].Output = "d1"; w.Datasets = w.Datasets[:2] }},
		{"bad config", func(w *Workflow) { w.Jobs[0].Config.NumReduceTasks = 0 }},
		{"branch without group", func(w *Workflow) { w.Jobs[0].MapBranches[0].Tag = 7 }},
		{"nil map fn", func(w *Workflow) { w.Jobs[0].MapBranches[0].Stages[0].Map = nil }},
		{"nil reduce fn", func(w *Workflow) { w.Jobs[0].ReduceGroups[0].Stages[0].Reduce = nil }},
		{"negative cpu", func(w *Workflow) { w.Jobs[0].MapBranches[0].Stages[0].CPUPerRecord = -1 }},
		{"no branches", func(w *Workflow) { w.Jobs[0].MapBranches = nil }},
		{"cycle", func(w *Workflow) {
			w.Jobs[0].MapBranches[0].Input = "d2" // J1 reads J2's output
		}},
	}
	for _, c := range cases {
		w := chainWorkflow()
		c.mut(w)
		if err := w.Validate(); err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestTopoSort(t *testing.T) {
	w := diamondWorkflow()
	order, err := w.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, j := range order {
		pos[j.ID] = i
	}
	if !(pos["J1"] < pos["J2"] && pos["J1"] < pos["J3"] && pos["J2"] < pos["J4"] && pos["J3"] < pos["J4"]) {
		t.Errorf("invalid topological order: %v", pos)
	}
}

func TestProducersConsumers(t *testing.T) {
	w := diamondWorkflow()
	if p := w.Producer("d1"); p == nil || p.ID != "J1" {
		t.Error("Producer(d1) wrong")
	}
	if w.Producer("base") != nil {
		t.Error("base dataset should have no producer")
	}
	cons := w.Consumers("d1")
	if len(cons) != 2 {
		t.Fatalf("Consumers(d1) = %d, want 2", len(cons))
	}
	jp := w.JobProducers(w.Job("J4"))
	if len(jp) != 2 {
		t.Errorf("JobProducers(J4) = %d, want 2", len(jp))
	}
	jc := w.JobConsumers(w.Job("J1"))
	if len(jc) != 2 {
		t.Errorf("JobConsumers(J1) = %d, want 2", len(jc))
	}
	sinks := w.SinkDatasets()
	if len(sinks) != 1 || sinks[0].ID != "d4" {
		t.Errorf("SinkDatasets = %v", sinks)
	}
}

func TestSoleLink(t *testing.T) {
	w := chainWorkflow()
	link, ok := SoleLink(w, w.Job("J1"), w.Job("J2"))
	if !ok || link != "d1" {
		t.Errorf("SoleLink = %q, %v", link, ok)
	}
	if _, ok := SoleLink(w, w.Job("J2"), w.Job("J1")); ok {
		t.Error("reverse direction should have no link")
	}
}

func TestCloneIsDeep(t *testing.T) {
	w := diamondWorkflow()
	w.Jobs[0].Profile = &JobProfile{}
	w.Jobs[0].Profile.SetMapProfile(0, "base", &PipelineProfile{Selectivity: 1, KeySample: []keyval.Tuple{keyval.T(1)}})
	w.Jobs[0].ReduceGroups[0].Constraints = []PartitionConstraint{{CoGroup: []string{"O"}}}
	w.Jobs[0].ReduceGroups[0].Part = keyval.PartitionSpec{Type: keyval.RangePartition,
		KeyFields: []int{0}, SortFields: []int{0}, SplitPoints: []keyval.Tuple{keyval.T(5)}}
	w.Datasets[1].Layout = Layout{PartType: keyval.RangePartition, PartFields: []string{"k"},
		SortFields: []string{"k"}, SplitPoints: []keyval.Tuple{keyval.T(5)}}
	c := w.Clone()
	// Split points are never written in place, so clones share them (the
	// skew estimate digests each list once); the field lists are copied.
	if &c.Jobs[0].ReduceGroups[0].Part.SplitPoints[0] != &w.Jobs[0].ReduceGroups[0].Part.SplitPoints[0] {
		t.Error("clone should share the group's split points")
	}
	if &c.Datasets[1].Layout.SplitPoints[0] != &w.Datasets[1].Layout.SplitPoints[0] {
		t.Error("clone should share the layout's split points")
	}
	c.Jobs[0].ReduceGroups[0].Part.KeyFields[0] = 9
	c.Jobs[0].ReduceGroups[0].Part.SortFields[0] = 9
	c.Datasets[1].Layout.PartFields[0] = "mutated"
	c.Datasets[1].Layout.SortFields[0] = "mutated"
	if p := w.Jobs[0].ReduceGroups[0].Part; p.KeyFields[0] != 0 || p.SortFields[0] != 0 {
		t.Error("clone aliases partition field lists")
	}
	if l := w.Datasets[1].Layout; l.PartFields[0] != "k" || l.SortFields[0] != "k" {
		t.Error("clone aliases layout field lists")
	}
	c.Jobs[0].ID = "Jx"
	c.Jobs[1].MapBranches[0].Input = "mutated"
	c.Datasets[0].KeyFields = []string{"mutated"}
	// Pipeline profiles are write-once and shared by Clone (cloning a plan
	// must not copy key-sample reservoirs), but the profile MAPS are
	// copied: replacing a clone's entry must not leak into the original.
	if c.Jobs[0].Profile.MapSide[0] != w.Jobs[0].Profile.MapSide[0] {
		t.Error("clone should share the write-once pipeline profile")
	}
	c.Jobs[0].Profile.SetMapProfile(0, "base", &PipelineProfile{Selectivity: 99})
	c.Jobs[0].ReduceGroups[0].Constraints[0].CoGroup[0] = "mutated"
	if w.Jobs[0].ID != "J1" || w.Jobs[1].MapBranches[0].Input != "d1" {
		t.Error("clone aliases job state")
	}
	if w.Datasets[0].KeyFields != nil {
		t.Error("clone aliases dataset state")
	}
	if w.Jobs[0].Profile.MapSide[0].Selectivity == 99 {
		t.Error("clone aliases profile maps")
	}
	if w.Jobs[0].ReduceGroups[0].Constraints[0].CoGroup[0] == "mutated" {
		t.Error("clone aliases constraints")
	}
}

func TestRemoveJobAndGC(t *testing.T) {
	w := chainWorkflow()
	w.RemoveJob("J2")
	if w.Job("J2") != nil {
		t.Fatal("J2 still present")
	}
	w.GC()
	if w.Dataset("d2") != nil {
		t.Error("d2 should be garbage-collected")
	}
	if w.Dataset("d1") == nil || w.Dataset("base") == nil {
		t.Error("live datasets dropped")
	}
}

func TestJobAccessors(t *testing.T) {
	w := diamondWorkflow()
	j4 := w.Job("J4")
	if got := j4.Inputs(); len(got) != 2 || got[0] != "d2" || got[1] != "d3" {
		t.Errorf("Inputs = %v", got)
	}
	if got := j4.Outputs(); len(got) != 1 || got[0] != "d4" {
		t.Errorf("Outputs = %v", got)
	}
	if g := j4.Group(0); g == nil || g.Output != "d4" {
		t.Error("Group(0) wrong")
	}
	if j4.Group(9) != nil {
		t.Error("Group(9) should be nil")
	}
	if j4.MapOnly() {
		t.Error("J4 is not map-only")
	}
	mo := &Job{ID: "m", ReduceGroups: []ReduceGroup{{Tag: 0, Output: "x"}}}
	if !mo.MapOnly() {
		t.Error("group without stages should be map-only")
	}
}

// TestReduceFanOut pins the job's reduce task count and each group's
// partition count, the one fan-out rule both the simulator and the What-if
// engine use.
func TestReduceFanOut(t *testing.T) {
	stages := []Stage{ReduceStage("R", identityReduce, nil, 0)}
	hash := func() ReduceGroup {
		return ReduceGroup{Stages: stages, Part: keyval.PartitionSpec{Type: keyval.HashPartition}}
	}
	ranged := func(k int) ReduceGroup {
		splits := make([]keyval.Tuple, k)
		for i := range splits {
			splits[i] = keyval.T(int64(10 * (i + 1)))
		}
		return ReduceGroup{Stages: stages, Part: keyval.PartitionSpec{Type: keyval.RangePartition, SplitPoints: splits}}
	}
	mapSide := hash()
	mapSide.RunsMapSide = true
	cases := []struct {
		name     string
		groups   []ReduceGroup
		reducers int   // Config.NumReduceTasks
		want     int   // Job.NumReduceTasks
		parts    []int // each group's Partitions(want)
	}{
		{"map-only", []ReduceGroup{{}}, 5, 0, []int{0}},
		{"map-side group alone", []ReduceGroup{mapSide}, 5, 0, []int{0}},
		{"map-side group ignored", []ReduceGroup{mapSide, hash()}, 4, 4, []int{0, 4}},
		{"hash", []ReduceGroup{hash()}, 7, 7, []int{7}},
		{"hash, no reducers configured", []ReduceGroup{hash()}, 0, 1, []int{1}},
		{"range, no reducers configured", []ReduceGroup{ranged(3)}, 0, 4, []int{4}},
		{"range, fewer reducers configured", []ReduceGroup{ranged(3)}, 2, 4, []int{4}},
		{"range, more reducers configured", []ReduceGroup{ranged(3)}, 50, 4, []int{4}},
		{"range, no split points", []ReduceGroup{ranged(0)}, 9, 1, []int{1}},
		{"hash spans the wider range group", []ReduceGroup{hash(), ranged(5)}, 2, 6, []int{6, 6}},
		{"range inside the wider hash", []ReduceGroup{hash(), ranged(2)}, 8, 8, []int{8, 3}},
		{"map-only beside shuffling groups", []ReduceGroup{{}, ranged(1), hash()}, 1, 2, []int{0, 2, 2}},
	}
	for _, tc := range cases {
		j := &Job{ID: "j", ReduceGroups: tc.groups, Config: Config{NumReduceTasks: tc.reducers}}
		if got := j.NumReduceTasks(); got != tc.want {
			t.Errorf("%s: NumReduceTasks = %d, want %d", tc.name, got, tc.want)
		}
		for i := range j.ReduceGroups {
			if got := j.ReduceGroups[i].Partitions(tc.want); got != tc.parts[i] {
				t.Errorf("%s: group %d Partitions(%d) = %d, want %d", tc.name, i, tc.want, got, tc.parts[i])
			}
		}
	}
}

func TestSummaryAndDOT(t *testing.T) {
	w := diamondWorkflow()
	s := w.Summary()
	for _, want := range []string{"J1", "J4", "4 jobs"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
	d := w.DOT()
	for _, want := range []string{"digraph", "job_J1", "ds_base", "->"} {
		if !strings.Contains(d, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{NumReduceTasks: 0, SplitSizeMB: 1, SortBufferMB: 1, IOSortFactor: 2},
		{NumReduceTasks: 1, SplitSizeMB: 0, SortBufferMB: 1, IOSortFactor: 2},
		{NumReduceTasks: 1, SplitSizeMB: 1, SortBufferMB: 0, IOSortFactor: 2},
		{NumReduceTasks: 1, SplitSizeMB: 1, SortBufferMB: 1, IOSortFactor: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if !strings.Contains(good.String(), "reduce=1") {
		t.Error("Config.String malformed")
	}
}

func TestSchemaHelpers(t *testing.T) {
	if !FieldsSubset([]string{"O"}, []string{"O", "Z"}) {
		t.Error("subset failed")
	}
	if FieldsSubset([]string{"O"}, nil) {
		t.Error("nil super should reject non-empty sub")
	}
	if !FieldsSubset(nil, nil) {
		t.Error("empty sub is subset of anything")
	}
	if got := FieldsIntersect([]string{"O", "Z"}, []string{"Z", "Q"}); len(got) != 1 || got[0] != "Z" {
		t.Errorf("intersect = %v", got)
	}
	if got := FieldsMinus([]string{"O", "Z"}, []string{"O"}); len(got) != 1 || got[0] != "Z" {
		t.Errorf("minus = %v", got)
	}
	if !FieldsEqual([]string{"a"}, []string{"a"}) || FieldsEqual([]string{"a"}, []string{"b"}) {
		t.Error("FieldsEqual wrong")
	}
	idx, ok := IndicesOf([]string{"O", "Z"}, []string{"Z", "O"})
	if !ok || idx[0] != 1 || idx[1] != 0 {
		t.Errorf("IndicesOf = %v, %v", idx, ok)
	}
	if _, ok := IndicesOf([]string{"O"}, []string{"Q"}); ok {
		t.Error("missing name should fail")
	}
	if _, ok := IndicesOf(nil, []string{"Q"}); ok {
		t.Error("nil schema should fail")
	}
	// Figure 4: Jp.K2={O,Z}, Jc.K2={O} -> sort key (O, Z).
	got := CombinedSortKey([]string{"Z", "O"}, []string{"O"})
	if !FieldsEqual(got, []string{"O", "Z"}) {
		t.Errorf("CombinedSortKey = %v, want [O Z]", got)
	}
}

func TestProfileAccessors(t *testing.T) {
	p := &JobProfile{}
	p.SetMapProfile(0, "dsA", &PipelineProfile{Selectivity: 0.5})
	p.SetMapProfile(0, "dsB", &PipelineProfile{Selectivity: 0.25})
	p.SetReduceProfile(0, &PipelineProfile{Selectivity: 2})
	bA := MapBranch{Tag: 0, Input: "dsA"}
	bB := MapBranch{Tag: 0, Input: "dsB"}
	if p.MapProfile(bA).Selectivity != 0.5 {
		t.Error("per-input profile for dsA wrong")
	}
	if p.MapProfile(bB).Selectivity != 0.25 {
		t.Error("per-input profile for dsB wrong")
	}
	if p.ReduceProfile(0).Selectivity != 2 {
		t.Error("reduce profile wrong")
	}
	if p.ReduceProfile(5) != nil {
		t.Error("unknown tag should be nil")
	}
	var nilP *JobProfile
	if nilP.MapProfile(bA) != nil || nilP.ReduceProfile(0) != nil || nilP.Clone() != nil {
		t.Error("nil profile accessors should be nil-safe")
	}
}

func TestFilterAndLayoutStrings(t *testing.T) {
	f := &Filter{Field: "O", Interval: keyval.Interval{Lo: int64(0), Hi: int64(100)}}
	if got := f.String(); got != "O in [0, 100)" {
		t.Errorf("Filter.String = %q", got)
	}
	var nilF *Filter
	if nilF.String() != "none" || nilF.Clone() != nil {
		t.Error("nil filter should render/clone safely")
	}
	l := Layout{PartType: keyval.HashPartition, PartFields: []string{"C"}, SortFields: []string{"C"}, Compressed: true}
	s := l.String()
	for _, want := range []string{"hash(C)", "sort(C)", "compressed"} {
		if !strings.Contains(s, want) {
			t.Errorf("Layout.String missing %q: %s", want, s)
		}
	}
	if (Layout{}).String() != "unspecified" {
		t.Error("empty layout should be unspecified")
	}
}
