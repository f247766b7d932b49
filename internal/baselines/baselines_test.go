package baselines

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/optimizer"
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

func job(id, in, out string, k2InK1 bool) *wf.Job {
	keyIn := []string{"k"}
	if !k2InK1 {
		keyIn = []string{"q"}
	}
	return &wf.Job{
		ID: id, Config: wf.DefaultConfig(), Origin: []string{id},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: in,
			Stages: []wf.Stage{wf.MapStage("M_"+id, passMap, 1e-6)},
			KeyIn:  keyIn, ValIn: []string{"v"},
			KeyOut: []string{"k"}, ValOut: []string{"v"},
		}},
		ReduceGroups: []wf.ReduceGroup{{
			Tag: 0, Output: out,
			Stages: []wf.Stage{wf.ReduceStage("R_"+id, sumReduce, nil, 1e-6)},
			KeyIn:  []string{"k"}, ValIn: []string{"v"},
			KeyOut: []string{"k"}, ValOut: []string{"sum"},
		}},
	}
}

// fanout builds base -> {A, B} (same input) plus a downstream C of A.
func fanout() *wf.Workflow {
	return &wf.Workflow{
		Name: "fanout",
		Jobs: []*wf.Job{
			job("A", "base", "dA", true),
			job("B", "base", "dB", true),
			job("C", "dA", "dC", true),
		},
		Datasets: []*wf.Dataset{
			{ID: "base", Base: true, KeyFields: []string{"k"}, ValueFields: []string{"v"}},
			{ID: "dA", KeyFields: []string{"k"}}, {ID: "dB", KeyFields: []string{"k"}}, {ID: "dC"},
		},
	}
}

func testCluster() *mrsim.Cluster {
	c := mrsim.DefaultCluster()
	c.VirtualScale = 1000
	return c
}

func TestRuleConfig(t *testing.T) {
	w := fanout()
	c := testCluster()
	comb := wf.ReduceStage("C", sumReduce, nil, 1e-6)
	w.Jobs[0].ReduceGroups[0].Combiner = &comb
	w.Jobs[1].PinnedReducers = true
	w.Jobs[1].Config.NumReduceTasks = 7
	RuleConfig(w, c)
	if got := w.Jobs[0].Config.NumReduceTasks; got != 90 {
		t.Errorf("rule reducers = %d, want 90 (0.9 x 100 slots)", got)
	}
	if !w.Jobs[0].Config.UseCombiner {
		t.Error("combiner should be enabled where present")
	}
	if w.Jobs[2].Config.UseCombiner {
		t.Error("combiner enabled where absent")
	}
	if w.Jobs[1].Config.NumReduceTasks != 7 {
		t.Error("rule config must not override pinned reducers")
	}
}

func TestBaselinePacksAllSameInput(t *testing.T) {
	b := Baseline{Cluster: testCluster()}
	plan, err := b.Plan(fanout())
	if err != nil {
		t.Fatal(err)
	}
	// A and B share base -> packed; C remains.
	if len(plan.Jobs) != 2 {
		t.Fatalf("baseline plan has %d jobs, want 2: %s", len(plan.Jobs), plan.Summary())
	}
	packed := plan.Job("A+B")
	if packed == nil {
		t.Fatalf("packed job missing: %s", plan.Summary())
	}
	if len(packed.ReduceGroups) != 2 {
		t.Error("packed job should carry both reduce groups")
	}
	// Rule config applied.
	if packed.Config.NumReduceTasks != 90 {
		t.Errorf("baseline reducers = %d", packed.Config.NumReduceTasks)
	}
}

func TestYSmartMinimizesJobs(t *testing.T) {
	// Chain where J2's grouping flows through J1 (packable) plus a
	// same-input sibling pair: YSmart should pack aggressively.
	w := &wf.Workflow{
		Name: "ysmart",
		Jobs: []*wf.Job{
			job("J1", "base", "d1", true),
			job("J2", "d1", "d2", true),
		},
		Datasets: []*wf.Dataset{
			{ID: "base", Base: true, KeyFields: []string{"k"}, ValueFields: []string{"v"}},
			{ID: "d1", KeyFields: []string{"k"}},
			{ID: "d2"},
		},
	}
	y := YSmart{Cluster: testCluster()}
	plan, err := y.Plan(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != 1 {
		t.Fatalf("YSmart left %d jobs, want 1: %s", len(plan.Jobs), plan.Summary())
	}
	// YSmart packs regardless of cost; the packed job keeps rule config.
	if plan.Jobs[0].Config.SortBufferMB != 200 {
		t.Error("rule config not applied")
	}
}

func TestYSmartPacksFanoutHorizontally(t *testing.T) {
	y := YSmart{Cluster: testCluster()}
	plan, err := y.Plan(fanout())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, j := range plan.Jobs {
		if len(j.ReduceGroups) > 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("YSmart did not pack same-input siblings: %s", plan.Summary())
	}
}

func TestPlannersPreserveResults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pairs := make([]keyval.Pair, 4000)
	for i := range pairs {
		pairs[i] = keyval.Pair{Key: keyval.T(int64(rng.Intn(50))), Value: keyval.T(int64(1))}
	}
	mk := func() *mrsim.DFS {
		dfs := mrsim.NewDFS()
		if err := dfs.Ingest("base", pairs, mrsim.IngestSpec{
			NumPartitions: 4, KeyFields: []string{"k"},
			Layout: wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}},
		}); err != nil {
			t.Fatal(err)
		}
		return dfs
	}
	cluster := testCluster()
	w := fanout()
	if err := profile.NewProfiler(cluster, 1.0, 1).Annotate(w, mk()); err != nil {
		t.Fatal(err)
	}
	ground := map[string]map[int64]int64{}
	dfs0 := mk()
	if _, err := mrsim.NewEngine(cluster, dfs0).RunWorkflow(w); err != nil {
		t.Fatal(err)
	}
	for _, ds := range []string{"dB", "dC"} {
		stored, _ := dfs0.Get(ds)
		m := map[int64]int64{}
		for _, p := range stored.AllPairs() {
			m[p.Key[0].(int64)] += p.Value[0].(int64)
		}
		ground[ds] = m
	}
	planners := []Planner{
		Baseline{Cluster: cluster},
		Starfish(cluster, 2),
		YSmart{Cluster: cluster},
		MRShare(cluster, 2),
		CostBased{Cluster: cluster, Seed: 2},
	}
	for _, p := range planners {
		plan, err := p.Plan(w)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("%s produced invalid plan: %v", p.Name(), err)
		}
		dfs := mk()
		if _, err := mrsim.NewEngine(cluster, dfs).RunWorkflow(plan); err != nil {
			t.Fatalf("%s plan failed: %v", p.Name(), err)
		}
		for ds, want := range ground {
			stored, ok := dfs.Get(ds)
			if !ok {
				t.Fatalf("%s: sink %s missing", p.Name(), ds)
			}
			got := map[int64]int64{}
			for _, pr := range stored.AllPairs() {
				got[pr.Key[0].(int64)] += pr.Value[0].(int64)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: sink %s has %d keys, want %d", p.Name(), ds, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("%s: sink %s key %d = %d, want %d", p.Name(), ds, k, got[k], v)
				}
			}
		}
	}
}

func TestStarfishOnlyTunesConfig(t *testing.T) {
	cluster := testCluster()
	w := fanout()
	rng := rand.New(rand.NewSource(9))
	pairs := make([]keyval.Pair, 3000)
	for i := range pairs {
		pairs[i] = keyval.Pair{Key: keyval.T(int64(rng.Intn(40))), Value: keyval.T(int64(1))}
	}
	dfs := mrsim.NewDFS()
	if err := dfs.Ingest("base", pairs, mrsim.IngestSpec{NumPartitions: 4, KeyFields: []string{"k"},
		Layout: wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}}}); err != nil {
		t.Fatal(err)
	}
	if err := profile.NewProfiler(cluster, 1.0, 1).Annotate(w, dfs); err != nil {
		t.Fatal(err)
	}
	s := Starfish(cluster, 3)
	plan, err := s.Plan(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Jobs) != len(w.Jobs) {
		t.Error("Starfish changed the plan structure")
	}
	changed := false
	for i, j := range plan.Jobs {
		if j.Config != w.Jobs[i].Config {
			changed = true
		}
	}
	if !changed {
		t.Error("Starfish did not tune any configuration")
	}
}

func TestMRSharePacksOnlyHorizontally(t *testing.T) {
	cluster := testCluster()
	w := fanout()
	m := MRShare(cluster, 4)
	plan, err := m.Plan(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range plan.Jobs {
		if j.AlignMapToInput {
			t.Error("MRShare applied vertical packing")
		}
		for _, g := range j.ReduceGroups {
			if g.RunsMapSide {
				t.Error("MRShare moved a reduce pipeline map-side")
			}
		}
	}
}

func TestPlannerNames(t *testing.T) {
	c := testCluster()
	cases := []struct {
		p    Planner
		want string
	}{
		{Baseline{Cluster: c}, "Baseline"},
		{Starfish(c, 0), "Starfish"},
		{YSmart{Cluster: c}, "YSmart"},
		{MRShare(c, 0), "MRShare"},
		{CostBased{Cluster: c}, "Stubby"},
		{CostBased{Cluster: c, Label: "Vertical"}, "Vertical"},
	}
	for _, cse := range cases {
		if got := cse.p.Name(); got != cse.want {
			t.Errorf("Name() = %q, want %q", got, cse.want)
		}
	}
}

// TestCostBasedRegistryPlanners: the five cost-based registry planners are
// one type, and each is the row selection its description promises — read
// back from a search's trace as the table rows it enumerated over and the
// traversal phases it ran (optimizer's TestTransformationTable pins which of
// those rows take part in which phase).
func TestCostBasedRegistryPlanners(t *testing.T) {
	vertical := []string{"intra-vertical", "inter-vertical", "inter-vertical-replicate", "inter-vertical-keep"}
	for _, c := range []struct {
		name, label string
		rows        []string
		phases      []string
	}{
		{"stubby", "Stubby", append(append([]string{}, vertical...), "horizontal", "partition"), []string{"vertical", "horizontal"}},
		{"vertical", "Vertical", append(append([]string{}, vertical...), "partition"), []string{"vertical"}},
		{"horizontal", "Horizontal", []string{"horizontal", "partition"}, []string{"horizontal"}},
		{"starfish", "Starfish", nil, []string{"config"}},
		{"mrshare", "MRShare", []string{"horizontal"}, []string{"horizontal"}},
	} {
		p, err := DefaultRegistry().New(c.name, testCluster(), 1)
		if err != nil {
			t.Fatal(err)
		}
		cb, ok := p.(CostBased)
		if !ok || cb.Name() != c.label {
			t.Fatalf("%s: registry built %T %q, want CostBased %q", c.name, p, p.Name(), c.label)
		}
		res, err := cb.Search(context.Background(), fanout(), optimizer.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var rows, phases []string
		for _, y := range res.Yield() {
			rows = append(rows, y.Transformation)
		}
		for _, u := range res.Units {
			if len(phases) == 0 || phases[len(phases)-1] != u.Phase {
				phases = append(phases, u.Phase)
			}
		}
		if !reflect.DeepEqual(rows, c.rows) || !reflect.DeepEqual(phases, c.phases) {
			t.Errorf("%s: rows %v phases %v, want rows %v phases %v", c.name, rows, phases, c.rows, c.phases)
		}
	}
}
