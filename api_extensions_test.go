package stubby_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/stubby-mr/stubby"
)

// Tests for the facade's extension surface: plan import/export (Section 6),
// the query front-end (Figure 2), workflow composition (Section 1), and
// custom transformations (EXODUS-style extensibility).

func TestPublicAPIPlanExportImport(t *testing.T) {
	wl := profiledWorkload(t, "SN", 0.1, 5)
	ctx := context.Background()
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := stubby.ExportPlan(&buf, wl.Workflow); err != nil {
		t.Fatalf("export: %v", err)
	}
	doc := buf.String()
	if !strings.Contains(doc, `"format": "stubby-plan"`) {
		t.Fatalf("unexpected document head: %.80s", doc)
	}

	// Structure-only import optimizes to the same decision as the
	// in-memory plan.
	structural, err := stubby.ImportPlanStructure(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("import structure: %v", err)
	}
	resMem, err := sess.Optimize(ctx, wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	resImp, err := sess.Optimize(ctx, structural)
	if err != nil {
		t.Fatal(err)
	}
	if len(resMem.Plan.Jobs) != len(resImp.Plan.Jobs) || resMem.EstimatedCost != resImp.EstimatedCost {
		t.Fatalf("imported plan optimized differently: %d/%f vs %d/%f",
			len(resMem.Plan.Jobs), resMem.EstimatedCost, len(resImp.Plan.Jobs), resImp.EstimatedCost)
	}

	// Executable import with a registry built from the original plan.
	reg := stubby.NewPlanRegistry()
	reg.RegisterWorkflow(wl.Workflow)
	runnable, err := stubby.ImportPlan(strings.NewReader(doc), reg)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	a, err := sess.Run(ctx, wl.DFS.Clone(), wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sess.Run(ctx, wl.DFS.Clone(), runnable)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("imported plan simulated differently: %.3f vs %.3f", a.Makespan, b.Makespan)
	}
}

func TestPublicAPICompileQuery(t *testing.T) {
	var rows []stubby.Pair
	for i := 0; i < 300; i++ {
		rows = append(rows, stubby.Pair{
			Key:   stubby.T(int64(i)),
			Value: stubby.T("g"+string(rune('0'+i%3)), float64(i%11)),
		})
	}
	dfs := stubby.NewDFS()
	if err := dfs.Ingest("t", rows, stubby.IngestSpec{NumPartitions: 3, KeyFields: []string{"id"}}); err != nil {
		t.Fatal(err)
	}
	bases := []*stubby.Dataset{{
		ID: "t", Base: true,
		KeyFields: []string{"id"}, ValueFields: []string{"grp", "x"},
	}}
	w, err := stubby.CompileQuery(`
		r = LOAD 't';
		g = GROUP r BY grp;
		s = FOREACH g GENERATE group, COUNT(*) AS n, SUM(x) AS sx;
		STORE s INTO 'out';
	`, bases, "q")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sess, err := stubby.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(context.Background(), dfs, w); err != nil {
		t.Fatalf("run: %v", err)
	}
	st, ok := dfs.Get("out")
	if !ok || st.Records() != 3 {
		t.Fatalf("query output wrong: ok=%v records=%d", ok, st.Records())
	}

	// ParseQuery exposes the AST for tooling.
	script, err := stubby.ParseQuery("r = LOAD 't'; STORE r INTO 'o';")
	if err != nil || len(script.Stmts) != 2 {
		t.Fatalf("ParseQuery: %v, %v", script, err)
	}
}

func TestPublicAPICompose(t *testing.T) {
	mk := func(name, in, out string) *stubby.Workflow {
		return &stubby.Workflow{
			Name: name,
			Jobs: []*stubby.Job{{
				ID: "J_" + name, Config: stubby.DefaultConfig(), Origin: []string{"J_" + name},
				MapBranches: []stubby.MapBranch{{
					Tag: 0, Input: in,
					Stages: []stubby.Stage{stubby.MapStage("M_"+name,
						func(k, v stubby.Tuple, emit stubby.Emit) { emit(k, v) }, 1e-6)},
				}},
				ReduceGroups: []stubby.ReduceGroup{{Tag: 0, Output: out}},
			}},
			Datasets: []*stubby.Dataset{
				{ID: in, Base: true},
				{ID: out},
			},
		}
	}
	combined, err := stubby.Compose("pipe", mk("a", "raw", "mid"), mk("b", "mid", "final"))
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	if len(combined.Jobs) != 2 || combined.Dataset("mid").Base {
		t.Fatalf("composition wrong: %s", combined.Summary())
	}
}

// dropSinkCopy is a minimal custom transformation used to check the public
// registration path end to end.
type dropSinkCopy struct{}

func (dropSinkCopy) Name() string { return "nop" }
func (dropSinkCopy) Apply(plan *stubby.Workflow, unitJobs []string) []stubby.Proposal {
	return nil
}

func TestPublicAPICustomTransformation(t *testing.T) {
	wl := profiledWorkload(t, "PJ", 0.1, 6)
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithOptimizerOptions(stubby.Options{
		Seed:   6,
		Custom: []stubby.Transformation{dropSinkCopy{}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Optimize(context.Background(), wl.Workflow)
	if err != nil {
		t.Fatalf("optimize with custom transformation: %v", err)
	}
	if res.Plan == nil {
		t.Fatal("no plan")
	}
}

func TestPublicAPISortPairs(t *testing.T) {
	pairs := []stubby.Pair{
		{Key: stubby.T(int64(2)), Value: stubby.T("b")},
		{Key: stubby.T(int64(1)), Value: stubby.T("a")},
		{Key: stubby.T(int64(1)), Value: stubby.T("A")},
	}
	stubby.SortPairs(pairs, nil)
	want := []stubby.Tuple{stubby.T(int64(1)), stubby.T(int64(1)), stubby.T(int64(2))}
	for i := range pairs {
		if !reflect.DeepEqual(pairs[i].Key, want[i]) {
			t.Fatalf("order wrong at %d: %v", i, pairs[i].Key)
		}
	}
}
