package wf

import "testing"

// Shape-building helpers: tiny map-only jobs wired purely by dataset IDs,
// enough for the job-graph edge functions, which never look at stages.

func shapeJob(id string, ins []string, outs []string) *Job {
	j := &Job{ID: id, Config: DefaultConfig(), Origin: []string{id}}
	for i, out := range outs {
		j.ReduceGroups = append(j.ReduceGroups, ReduceGroup{Tag: i, Output: out})
	}
	for _, in := range ins {
		j.MapBranches = append(j.MapBranches, MapBranch{
			Tag: 0, Input: in,
			Stages: []Stage{MapStage("M_"+id+"_"+in, passMap, 1e-6)},
		})
	}
	return j
}

func shapeWorkflow(name string, jobs []*Job, base []string) *Workflow {
	w := &Workflow{Name: name}
	seen := map[string]bool{}
	for _, b := range base {
		seen[b] = true
		w.Datasets = append(w.Datasets, &Dataset{ID: b, Base: true})
	}
	for _, j := range jobs {
		w.Jobs = append(w.Jobs, j)
		for _, out := range j.Outputs() {
			if !seen[out] {
				seen[out] = true
				w.Datasets = append(w.Datasets, &Dataset{ID: out})
			}
		}
	}
	return w
}

// TestClassifySubgraphShapes is the table-driven edge-case suite the
// generator's DAG shapes motivated — single-job workflows, chains, fan-out,
// fan-in, diamond sharing, and a fan-in/fan-out hybrid — over the two edge
// functions that tell Figure 3's subgraph shapes apart: how many jobs feed
// a job (JobProducers) and how many it feeds (JobConsumers).
func TestClassifySubgraphShapes(t *testing.T) {
	single := shapeWorkflow("single",
		[]*Job{shapeJob("J1", []string{"b"}, []string{"o"})}, []string{"b"})
	chain := shapeWorkflow("chain", []*Job{
		shapeJob("J1", []string{"b"}, []string{"d1"}),
		shapeJob("J2", []string{"d1"}, []string{"o"}),
	}, []string{"b"})
	fanOut := shapeWorkflow("fan-out", []*Job{
		shapeJob("J1", []string{"b"}, []string{"d1"}),
		shapeJob("J2", []string{"d1"}, []string{"o2"}),
		shapeJob("J3", []string{"d1"}, []string{"o3"}),
	}, []string{"b"})
	fanIn := shapeWorkflow("fan-in", []*Job{
		shapeJob("J1", []string{"b"}, []string{"d1"}),
		shapeJob("J2", []string{"b"}, []string{"d2"}),
		shapeJob("J3", []string{"d1", "d2"}, []string{"o"}),
	}, []string{"b"})
	diamond := shapeWorkflow("diamond", []*Job{
		shapeJob("J1", []string{"b"}, []string{"d1"}),
		shapeJob("J2", []string{"d1"}, []string{"d2"}),
		shapeJob("J3", []string{"d1"}, []string{"d3"}),
		shapeJob("J4", []string{"d2", "d3"}, []string{"o"}),
	}, []string{"b"})
	// Hybrid: J3 has two producers (many-to-one) and one of them fans out
	// (one-to-many).
	hybrid := shapeWorkflow("hybrid", []*Job{
		shapeJob("J1", []string{"b"}, []string{"d1"}),
		shapeJob("J2", []string{"b"}, []string{"d2"}),
		shapeJob("J3", []string{"d1", "d2"}, []string{"o3"}),
		shapeJob("J4", []string{"d1"}, []string{"o4"}),
	}, []string{"b"})

	for _, w := range []*Workflow{single, chain, fanOut, fanIn, diamond, hybrid} {
		if err := w.Validate(); err != nil {
			t.Fatalf("%s: invalid fixture: %v", w.Name, err)
		}
	}

	cases := []struct {
		w         *Workflow
		job       string
		producers int // len(JobProducers(job))
		consumers int // len(JobConsumers(job))
	}{
		{single, "J1", 0, 0},
		{chain, "J1", 0, 1},
		{chain, "J2", 1, 0},
		{fanOut, "J1", 0, 2},
		{fanOut, "J2", 1, 0},
		{fanOut, "J3", 1, 0},
		{fanIn, "J3", 2, 0},
		{fanIn, "J1", 0, 1},
		{diamond, "J1", 0, 2},
		{diamond, "J2", 1, 1},
		{diamond, "J4", 2, 0},
		{hybrid, "J3", 2, 0},
		{hybrid, "J1", 0, 2},
		{hybrid, "J4", 1, 0},
	}
	for _, tc := range cases {
		j := tc.w.Job(tc.job)
		if got := len(tc.w.JobProducers(j)); got != tc.producers {
			t.Errorf("%s: %s has %d producers, want %d", tc.w.Name, tc.job, got, tc.producers)
		}
		if got := len(tc.w.JobConsumers(j)); got != tc.consumers {
			t.Errorf("%s: %s has %d consumers, want %d", tc.w.Name, tc.job, got, tc.consumers)
		}
	}
}

// TestSoleLinkEdgeCases: exactly-one-dataset links under multi-output
// producers, double links, and re-read links.
func TestSoleLinkEdgeCases(t *testing.T) {
	// J1 writes two datasets; J2 reads both: two links, not one.
	double := shapeWorkflow("double", []*Job{
		shapeJob("J1", []string{"b"}, []string{"d1", "d2"}),
		shapeJob("J2", []string{"d1", "d2"}, []string{"o"}),
	}, []string{"b"})
	if _, ok := SoleLink(double, double.Job("J1"), double.Job("J2")); ok {
		t.Error("two-dataset link reported as sole")
	}

	// J1 writes two datasets; J2 reads only one: that one is the sole link.
	split := shapeWorkflow("split", []*Job{
		shapeJob("J1", []string{"b"}, []string{"d1", "d2"}),
		shapeJob("J2", []string{"d1"}, []string{"o"}),
		shapeJob("J3", []string{"d2"}, []string{"o3"}),
	}, []string{"b"})
	if link, ok := SoleLink(split, split.Job("J1"), split.Job("J2")); !ok || link != "d1" {
		t.Errorf("SoleLink = %q, %v; want d1, true", link, ok)
	}

	// A consumer reading the link through two branches still counts one
	// dataset: Inputs() is distinct.
	reread := shapeWorkflow("reread", []*Job{
		shapeJob("J1", []string{"b"}, []string{"d1"}),
		shapeJob("J2", []string{"d1", "d1"}, []string{"o"}),
	}, []string{"b"})
	if link, ok := SoleLink(reread, reread.Job("J1"), reread.Job("J2")); !ok || link != "d1" {
		t.Errorf("double-branch SoleLink = %q, %v; want d1, true", link, ok)
	}

	// Unrelated jobs share no link.
	if _, ok := SoleLink(split, split.Job("J2"), split.Job("J3")); ok {
		t.Error("unrelated jobs reported a sole link")
	}
}
