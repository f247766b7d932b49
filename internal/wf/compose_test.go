package wf

import (
	"strings"
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
)

func passMap(k, v keyval.Tuple, emit Emit) { emit(k, v) }

// miniWorkflow builds "name": base in -> J(name) -> out.
func miniWorkflow(name, in, out string, inBase bool) *Workflow {
	return &Workflow{
		Name: name,
		Jobs: []*Job{{
			ID: "J_" + name, Config: DefaultConfig(), Origin: []string{"J_" + name},
			MapBranches: []MapBranch{{Tag: 0, Input: in,
				Stages: []Stage{MapStage("M_"+name, passMap, 1e-6)}}},
			ReduceGroups: []ReduceGroup{{Tag: 0, Output: out}},
		}},
		Datasets: []*Dataset{
			{ID: in, Base: inBase, KeyFields: []string{"k"}, ValueFields: []string{"v"}},
			{ID: out, KeyFields: []string{"k"}, ValueFields: []string{"v"}},
		},
	}
}

func TestComposeStitchesProducerToConsumer(t *testing.T) {
	producer := miniWorkflow("clean", "raw", "cleaned", true)
	consumer := miniWorkflow("report", "cleaned", "result", true) // sees cleaned as base

	w, err := Compose("pipeline", producer, consumer)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	if len(w.Jobs) != 2 || len(w.Datasets) != 3 {
		t.Fatalf("composed shape: %d jobs, %d datasets", len(w.Jobs), len(w.Datasets))
	}
	d := w.Dataset("cleaned")
	if d.Base {
		t.Fatal("stitched dataset still marked base")
	}
	if p := w.Producer("cleaned"); p == nil || p.ID != "J_clean" {
		t.Fatalf("producer of cleaned = %v", p)
	}
	if cs := w.Consumers("cleaned"); len(cs) != 1 || cs[0].ID != "J_report" {
		t.Fatalf("consumers of cleaned = %v", cs)
	}
	order, err := w.TopoSort()
	if err != nil {
		t.Fatalf("topo: %v", err)
	}
	if order[0].ID != "J_clean" {
		t.Fatalf("topological order wrong: %v", order[0].ID)
	}
}

func TestComposeRejectsDuplicateJobIDs(t *testing.T) {
	a := miniWorkflow("x", "in_a", "out_a", true)
	b := miniWorkflow("x", "in_b", "out_b", true) // same job ID J_x
	if _, err := Compose("dup", a, b); err == nil || !strings.Contains(err.Error(), "Namespace") {
		t.Fatalf("duplicate job IDs not rejected: %v", err)
	}
}

func TestComposeAfterNamespace(t *testing.T) {
	a := miniWorkflow("x", "shared", "out", true)
	b := miniWorkflow("x", "shared", "out", true)
	w, err := Compose("both", a.Namespace("a"), b.Namespace("b"))
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	if len(w.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(w.Jobs))
	}
	if w.Dataset("shared") == nil || !w.Dataset("shared").Base {
		t.Fatal("shared base dataset lost")
	}
	if w.Dataset("a/out") == nil || w.Dataset("b/out") == nil {
		t.Fatalf("namespaced outputs missing: %s", w.Summary())
	}
	// Both jobs consume the same (un-namespaced) base input.
	if len(w.Consumers("shared")) != 2 {
		t.Fatalf("consumers of shared = %d", len(w.Consumers("shared")))
	}
}

func TestComposeRejectsSchemaDisagreement(t *testing.T) {
	a := miniWorkflow("a", "in", "out_a", true)
	b := miniWorkflow("b", "in", "out_b", true)
	b.Dataset("in").KeyFields = []string{"other"}
	if _, err := Compose("bad", a, b); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("schema disagreement not rejected: %v", err)
	}
}

func TestComposeProducerSchemaWins(t *testing.T) {
	producer := miniWorkflow("clean", "raw", "cleaned", true)
	producer.Dataset("cleaned").KeyFields = []string{"id"}
	producer.Dataset("cleaned").ValueFields = []string{"payload"}
	consumer := miniWorkflow("report", "cleaned", "result", true)
	consumer.Dataset("cleaned").KeyFields = []string{"legacy_id"} // consumer's stale view

	w, err := Compose("pipeline", producer, consumer)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	if got := w.Dataset("cleaned").KeyFields; !FieldsEqual(got, []string{"id"}) {
		t.Fatalf("producer schema did not win: %v", got)
	}
}

func TestComposeFillsUnknownAnnotations(t *testing.T) {
	a := miniWorkflow("a", "in", "out_a", true)
	a.Dataset("in").KeyFields = nil
	a.Dataset("in").ValueFields = nil
	b := miniWorkflow("b", "in", "out_b", true)
	b.Dataset("in").EstRecords = 500

	w, err := Compose("fill", a, b)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	d := w.Dataset("in")
	if !FieldsEqual(d.KeyFields, []string{"k"}) || d.EstRecords != 500 {
		t.Fatalf("annotations not merged: %+v", d)
	}
}

func TestComposeCycleRejected(t *testing.T) {
	a := miniWorkflow("a", "x", "y", true)
	b := miniWorkflow("b", "y", "x", true) // closes the loop
	if _, err := Compose("cycle", a, b); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cyclic composition not rejected: %v", err)
	}
}

func TestNamespacePreservesSemantics(t *testing.T) {
	w := miniWorkflow("x", "in", "out", true)
	n := w.Namespace("ns")
	if err := n.Validate(); err != nil {
		t.Fatalf("namespaced workflow invalid: %v", err)
	}
	if n.Job("ns/J_x") == nil {
		t.Fatalf("job not renamed: %s", n.Summary())
	}
	if n.Dataset("in") == nil {
		t.Fatal("base dataset renamed; must stay shared")
	}
	if n.Dataset("ns/out") == nil {
		t.Fatal("intermediate dataset not renamed")
	}
	// The original is untouched.
	if w.Job("J_x") == nil || w.Dataset("out") == nil {
		t.Fatal("Namespace mutated its receiver")
	}
}

// TestComposeEdgeCases is the table-driven edge-case suite for Compose:
// empty part lists, single-workflow (identity) composition, single-job
// components, and diamond sharing where two independently developed
// components consume one produced dataset.
func TestComposeEdgeCases(t *testing.T) {
	producer := func() *Workflow { return miniWorkflow("clean", "raw", "cleaned", true) }
	left := func() *Workflow { return miniWorkflow("left", "cleaned", "lout", true) }
	right := func() *Workflow { return miniWorkflow("right", "cleaned", "rout", true) }

	cases := []struct {
		name    string
		parts   func() []*Workflow
		wantErr bool
		check   func(t *testing.T, w *Workflow)
	}{
		{
			name:    "empty part set rejected",
			parts:   func() []*Workflow { return nil },
			wantErr: true,
		},
		{
			name:  "single workflow composes to itself",
			parts: func() []*Workflow { return []*Workflow{producer()} },
			check: func(t *testing.T, w *Workflow) {
				if len(w.Jobs) != 1 || len(w.Datasets) != 2 {
					t.Fatalf("shape: %d jobs, %d datasets", len(w.Jobs), len(w.Datasets))
				}
				if !w.Dataset("raw").Base || w.Dataset("cleaned").Base {
					t.Fatal("base flags wrong after identity composition")
				}
			},
		},
		{
			name: "single-job components stitch into a chain",
			parts: func() []*Workflow {
				return []*Workflow{producer(), miniWorkflow("report", "cleaned", "result", true)}
			},
			check: func(t *testing.T, w *Workflow) {
				order, err := w.TopoSort()
				if err != nil || len(order) != 2 || order[0].ID != "J_clean" {
					t.Fatalf("topo = %v, %v", order, err)
				}
			},
		},
		{
			name: "diamond sharing: two components consume one produced dataset",
			parts: func() []*Workflow {
				return []*Workflow{producer(), left(), right()}
			},
			check: func(t *testing.T, w *Workflow) {
				if cs := w.Consumers("cleaned"); len(cs) != 2 {
					t.Fatalf("cleaned has %d consumers, want 2", len(cs))
				}
				if w.Dataset("cleaned").Base {
					t.Fatal("shared dataset still marked base")
				}
				if n := len(w.JobConsumers(w.Job("J_clean"))); n != 2 {
					t.Fatalf("diamond producer feeds %d jobs, want 2", n)
				}
			},
		},
		{
			name: "order independence: consumers listed before the producer",
			parts: func() []*Workflow {
				return []*Workflow{left(), right(), producer()}
			},
			check: func(t *testing.T, w *Workflow) {
				if w.Producer("cleaned") == nil {
					t.Fatal("producer not stitched when listed last")
				}
				if w.Dataset("cleaned").Base {
					t.Fatal("base flag survived late-producer stitching")
				}
			},
		},
		{
			name: "two producers of one dataset rejected",
			parts: func() []*Workflow {
				a := miniWorkflow("a", "raw", "dup", true)
				b := miniWorkflow("b", "raw2", "dup", true)
				return []*Workflow{a, b}
			},
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, err := Compose("combo", tc.parts()...)
			if tc.wantErr {
				if err == nil {
					t.Fatal("composition unexpectedly succeeded")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if verr := w.Validate(); verr != nil {
				t.Fatalf("composed workflow invalid: %v", verr)
			}
			tc.check(t, w)
		})
	}
}
