package optimizer

import (
	"reflect"
	"strings"
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
)

func sumFloat(k keyval.Tuple, vs []keyval.Tuple, emit wf.Emit) {
	var s float64
	for _, v := range vs {
		s += v[0].(float64)
	}
	emit(k, keyval.T(s))
}

// copyChain builds src -> COPY (map-only identity) -> SUM -> sums, the
// shape the test transformation below elides.
func copyChain() *wf.Workflow {
	identity := wf.MapStage("M_id", func(k, v keyval.Tuple, emit wf.Emit) { emit(k, v) }, 0.3e-6)
	rekey := wf.MapStage("M_rk", func(k, v keyval.Tuple, emit wf.Emit) { emit(k, v) }, 0.3e-6)
	return &wf.Workflow{
		Name: "copychain",
		Jobs: []*wf.Job{
			{
				ID: "COPY", Config: wf.DefaultConfig(), Origin: []string{"COPY"},
				MapBranches: []wf.MapBranch{{
					Tag: 0, Input: "src",
					Stages: []wf.Stage{identity},
					KeyIn:  []string{"k"}, ValIn: []string{"x"},
					KeyOut: []string{"k"}, ValOut: []string{"x"},
				}},
				ReduceGroups: []wf.ReduceGroup{{
					Tag: 0, Output: "copied",
					KeyOut: []string{"k"}, ValOut: []string{"x"},
				}},
			},
			{
				ID: "SUM", Config: wf.DefaultConfig(), Origin: []string{"SUM"},
				MapBranches: []wf.MapBranch{{
					Tag: 0, Input: "copied",
					Stages: []wf.Stage{rekey},
					KeyIn:  []string{"k"}, ValIn: []string{"x"},
					KeyOut: []string{"k"}, ValOut: []string{"x"},
				}},
				ReduceGroups: []wf.ReduceGroup{{
					Tag: 0, Output: "sums",
					Stages: []wf.Stage{wf.ReduceStage("R_sum", sumFloat, nil, 0.5e-6)},
					KeyIn:  []string{"k"}, ValIn: []string{"x"},
					KeyOut: []string{"k"}, ValOut: []string{"sum"},
				}},
			},
		},
		Datasets: []*wf.Dataset{
			{ID: "src", Base: true, KeyFields: []string{"k"}, ValueFields: []string{"x"}},
			{ID: "copied", KeyFields: []string{"k"}, ValueFields: []string{"x"}},
			{ID: "sums", KeyFields: []string{"k"}, ValueFields: []string{"sum"}},
		},
	}
}

// copyElision is a test-fixture transformation: it removes a map-only job
// whose single unfiltered branch has identical input and output schemas
// (an identity copy by construction in this test), rewiring consumers to
// the copy's input. Real extensions must justify semantic preservation the
// same way built-ins do — here the fixture controls both jobs.
type copyElision struct{}

func (copyElision) Name() string { return "copy-elision" }

func (copyElision) Apply(plan *wf.Workflow, unitJobs []string) []Proposal {
	var out []Proposal
	for _, id := range unitJobs {
		j := plan.Job(id)
		if j == nil || !j.MapOnly() || len(j.MapBranches) != 1 || len(j.ReduceGroups) != 1 {
			continue
		}
		b := j.MapBranches[0]
		if len(b.Stages) != 1 || b.Filter != nil ||
			!wf.FieldsEqual(b.KeyIn, b.KeyOut) || !wf.FieldsEqual(b.ValIn, b.ValOut) {
			continue
		}
		outDS := j.ReduceGroups[0].Output
		if len(plan.Consumers(outDS)) == 0 {
			continue // a sink copy is load-bearing
		}
		p := plan.Clone()
		for _, cj := range p.Jobs {
			for i := range cj.MapBranches {
				if cj.MapBranches[i].Input == outDS {
					cj.MapBranches[i].Input = b.Input
				}
			}
		}
		p.RemoveJob(id)
		p.GC()
		out = append(out, Proposal{Plan: p, Desc: "copy-elision(" + id + ")"})
	}
	return out
}

// brokenTransformation stresses the defensive path: nil and structurally
// invalid proposals must be discarded without aborting the search.
type brokenTransformation struct{}

func (brokenTransformation) Name() string { return "broken" }

func (brokenTransformation) Apply(plan *wf.Workflow, unitJobs []string) []Proposal {
	bad := plan.Clone()
	bad.Jobs[0].MapBranches[0].Input = "no-such-dataset"
	return []Proposal{{Plan: nil}, {Plan: bad, Desc: "invalid"}}
}

// customFixture profiles w over a 600-record src.
func customFixture(t *testing.T, w *wf.Workflow) (*wf.Workflow, *mrsim.DFS, *mrsim.Cluster) {
	t.Helper()
	var pairs []keyval.Pair
	for i := 0; i < 600; i++ {
		pairs = append(pairs, keyval.Pair{
			Key:   keyval.T(int64(i % 40)),
			Value: keyval.T(float64(i % 13)),
		})
	}
	dfs := mrsim.NewDFS()
	if err := dfs.Ingest("src", pairs, mrsim.IngestSpec{
		NumPartitions: 4,
		KeyFields:     []string{"k"},
		Layout:        wf.Layout{PartType: keyval.HashPartition, PartFields: []string{"k"}},
	}); err != nil {
		t.Fatal(err)
	}
	cl := testCluster()
	if err := profile.NewProfiler(cl, 1.0, 1).Annotate(w, dfs); err != nil {
		t.Fatal(err)
	}
	return w, dfs, cl
}

// TestCustomTransformationExtendsSearch pins the EXODUS-style extensibility
// contract: with the horizontal-only group (which has no built-in way to
// remove the copy job) a registered custom transformation is enumerated,
// chosen on cost, traced, and preserves results.
func TestCustomTransformationExtendsSearch(t *testing.T) {
	w, dfs, cl := customFixture(t, copyChain())

	run := func(plan *wf.Workflow) []keyval.Pair {
		d := dfs.Clone()
		if _, err := mrsim.NewEngine(cl, d).RunWorkflow(plan); err != nil {
			t.Fatalf("run: %v", err)
		}
		st, ok := d.Get("sums")
		if !ok {
			t.Fatal("sums missing")
		}
		pairs := st.AllPairs()
		keyval.SortPairs(pairs, nil)
		return pairs
	}

	without, err := New(cl, Options{Seed: 1, Groups: GroupHorizontal}).Optimize(w)
	if err != nil {
		t.Fatalf("optimize without custom: %v", err)
	}
	if len(without.Plan.Jobs) != 2 {
		t.Fatalf("horizontal-only optimizer unexpectedly restructured the chain: %d jobs", len(without.Plan.Jobs))
	}

	with, err := New(cl, Options{Seed: 1, Groups: GroupHorizontal, Custom: []Transformation{copyElision{}}}).Optimize(w)
	if err != nil {
		t.Fatalf("optimize with custom: %v", err)
	}
	if len(with.Plan.Jobs) != 1 {
		t.Fatalf("custom transformation not applied: %d jobs\n%s", len(with.Plan.Jobs), with.Plan.Summary())
	}
	traced := false
	for _, u := range with.Units {
		for _, sp := range u.Subplans {
			if strings.Contains(sp.Description, "custom:copy-elision") {
				traced = true
			}
		}
	}
	if !traced {
		t.Error("custom transformation missing from the search trace")
	}
	// A custom row is counted like a built-in: its one proposal per unit
	// holding COPY is kept, and the chosen plan took exactly one.
	yield := with.Yield()
	if y := yield[len(yield)-1]; y.Transformation != "custom:copy-elision" ||
		y.Proposed < 1 || y.Kept < 1 || y.Kept > y.Proposed || y.Chosen != 1 {
		t.Errorf("custom row yield = %+v", y)
	}
	for _, u := range with.Units {
		kept := 0
		for _, y := range u.Yield {
			kept += y.Kept
		}
		if kept+1 != len(u.Subplans) {
			t.Errorf("%s unit: %d kept proposals but %d subplans", u.Phase, kept, len(u.Subplans))
		}
	}
	if want, got := run(w), run(with.Plan); !reflect.DeepEqual(want, got) {
		t.Fatal("custom-optimized plan changed results")
	}
}

func TestCustomTransformationInvalidProposalsDiscarded(t *testing.T) {
	w, _, cl := customFixture(t, copyChain())
	res, err := New(cl, Options{Seed: 1, Custom: []Transformation{brokenTransformation{}}}).Optimize(w)
	if err != nil {
		t.Fatalf("broken custom transformation aborted the search: %v", err)
	}
	for _, u := range res.Units {
		for _, sp := range u.Subplans {
			if strings.Contains(sp.Description, "custom:") {
				t.Fatalf("invalid proposal entered enumeration: %s", sp.Description)
			}
		}
	}
}

// TestCustomTransformationCostRejected verifies proposals lose on cost when
// they do not help: a transformation that duplicates work must not displace
// the incumbent structure.
type workDoubler struct{}

func (workDoubler) Name() string { return "work-doubler" }

func (workDoubler) Apply(plan *wf.Workflow, unitJobs []string) []Proposal {
	// Insert a pointless extra copy of the sums output: strictly worse.
	p := plan.Clone()
	var sink string
	for _, d := range p.Datasets {
		if len(p.Consumers(d.ID)) == 0 && p.Producer(d.ID) != nil {
			sink = d.ID
		}
	}
	if sink == "" {
		return nil
	}
	p.Jobs = append(p.Jobs, &wf.Job{
		ID: "WASTE", Config: wf.DefaultConfig(), Origin: []string{"WASTE"},
		MapBranches: []wf.MapBranch{{
			Tag: 0, Input: sink,
			Stages: []wf.Stage{wf.MapStage("M_waste", func(k, v keyval.Tuple, emit wf.Emit) { emit(k, v) }, 1e-6)},
		}},
		ReduceGroups: []wf.ReduceGroup{{Tag: 0, Output: "wasted"}},
	})
	p.Datasets = append(p.Datasets, &wf.Dataset{ID: "wasted"})
	return []Proposal{{Plan: p, Desc: "waste"}}
}

func TestCustomTransformationCostRejected(t *testing.T) {
	w, _, cl := customFixture(t, copyChain())
	res, err := New(cl, Options{Seed: 1, Custom: []Transformation{workDoubler{}}}).Optimize(w)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	for _, j := range res.Plan.Jobs {
		if j.ID == "WASTE" {
			t.Fatal("cost model accepted a strictly wasteful custom proposal")
		}
	}
}
