package stubby_test

import (
	"context"
	"strings"
	"testing"

	"github.com/stubby-mr/stubby"
)

// TestPublicAPIRoundTrip exercises the whole facade: build a workload,
// profile, estimate, optimize, execute, and verify result equivalence —
// the README quick-start, as a test.
func TestPublicAPIRoundTrip(t *testing.T) {
	wl, err := stubby.BuildWorkload("IR", stubby.WorkloadOptions{SizeFactor: 0.15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Profile(ctx, wl.Workflow, wl.DFS); err != nil {
		t.Fatal(err)
	}
	est, err := sess.Estimate(ctx, wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	if est.Fallback || est.Makespan <= 0 {
		t.Fatalf("estimate unusable: %+v", est)
	}
	res, err := sess.Optimize(ctx, wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Jobs) >= len(wl.Workflow.Jobs) {
		t.Errorf("IR should pack: %d -> %d jobs", len(wl.Workflow.Jobs), len(res.Plan.Jobs))
	}
	before, err := sess.Run(ctx, wl.DFS.Clone(), wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	after, err := sess.Run(ctx, wl.DFS.Clone(), res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if after.Makespan >= before.Makespan {
		t.Errorf("optimized plan slower: %.1f vs %.1f", after.Makespan, before.Makespan)
	}
}

func TestPublicAPIBuildWorkflowByHand(t *testing.T) {
	// A user-defined workflow through the facade only.
	var pairs []stubby.Pair
	for i := 0; i < 500; i++ {
		pairs = append(pairs, stubby.Pair{Key: stubby.T(int64(i % 7)), Value: stubby.T(int64(1))})
	}
	dfs := stubby.NewDFS()
	if err := dfs.Ingest("in", pairs, stubby.IngestSpec{
		NumPartitions: 3,
		KeyFields:     []string{"k"},
		Layout:        stubby.Layout{PartFields: []string{"k"}},
	}); err != nil {
		t.Fatal(err)
	}
	w := &stubby.Workflow{
		Name: "byhand",
		Jobs: []*stubby.Job{{
			ID: "J", Config: stubby.DefaultConfig(), Origin: []string{"J"},
			MapBranches: []stubby.MapBranch{{
				Tag: 0, Input: "in",
				Stages: []stubby.Stage{stubby.MapStage("m",
					func(k, v stubby.Tuple, emit stubby.Emit) { emit(k, v) }, 1e-6)},
			}},
			ReduceGroups: []stubby.ReduceGroup{{
				Tag: 0, Output: "out",
				Stages: []stubby.Stage{stubby.ReduceStage("r",
					func(k stubby.Tuple, vs []stubby.Tuple, emit stubby.Emit) {
						emit(k, stubby.T(int64(len(vs))))
					}, nil, 1e-6)},
			}},
		}},
		Datasets: []*stubby.Dataset{
			{ID: "in", Base: true, KeyFields: []string{"k"}},
			{ID: "out"},
		},
	}
	sess, err := stubby.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(context.Background(), dfs, w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 || rep.Job("J") == nil {
		t.Fatal("run report unusable")
	}
	stored, ok := dfs.Get("out")
	if !ok || stored.Records() != 7 {
		t.Fatalf("expected 7 groups, got %d", stored.Records())
	}
}

func TestPublicAPIPlanners(t *testing.T) {
	wl := profiledWorkload(t, "PJ", 0.2, 4)
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"baseline", "starfish", "ysmart", "mrshare", "stubby"} {
		p, err := sess.Planner(name)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := p.Plan(wl.Workflow)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if _, err := sess.Run(context.Background(), wl.DFS.Clone(), plan); err != nil {
			t.Fatalf("%s plan failed: %v", p.Name(), err)
		}
	}
}

func TestWorkloadsListing(t *testing.T) {
	ws := stubby.Workloads()
	if len(ws) != 8 || ws[0] != "IR" {
		t.Fatalf("Workloads() = %v", ws)
	}
	if _, err := stubby.BuildWorkload("XX", stubby.WorkloadOptions{}); err == nil ||
		!strings.Contains(err.Error(), "unknown") {
		t.Error("unknown workload should error")
	}
}
