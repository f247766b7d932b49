package stubby_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/gen"
)

// The reuse equivalence suite is the oracle for cross-workflow sub-plan
// reuse: generator-produced families of overlapping workflows, member 0
// run to completion with a catalog attached, later members optimized
// against that catalog and without it. A member's plan with the catalog
// must cost no more than its plan without it; a plan that reuses nothing
// must be that plan byte for byte, and a plan that reuses a stored sub-DAG
// must produce tuple-for-tuple identical sink outputs to the member's own
// identity plan. A metamorphic guard pins the other side: workflows with
// no catalog match must optimize to byte-identical plans whether or not a
// (populated) catalog is attached.

// reuseFamilySeeds are the family seeds the equivalence suite sweeps, and
// minReuseAdopters how many of their 10 consumer members must adopt a
// reuse rewrite: everything here is deterministic, so a member that stops
// reusing is a change in the pre-pass or the search, not test flake.
var reuseFamilySeeds = []int64{1, 2, 3, 5, 8}

const minReuseAdopters = 8

// reuseRRSEvals caps the per-member search budget; equivalence must hold
// at any budget.
const reuseRRSEvals = 40

func reuseSession(t *testing.T, c *gen.Case, cat *stubby.ReuseCatalog, extra ...stubby.SessionOption) *stubby.Session {
	t.Helper()
	opts := []stubby.SessionOption{
		stubby.WithCluster(c.Cluster),
		stubby.WithSeed(1),
		stubby.WithProfileFraction(0.5),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: reuseRRSEvals}),
	}
	if cat != nil {
		opts = append(opts, stubby.WithReuseCatalog(cat))
	}
	sess, err := stubby.NewSession(append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// optimizeFamily runs member 0 of gen.Family(seed, 3) with a catalog
// attached, which publishes every intermediate it materializes, then in one
// subtest per later member optimizes the member with the catalog and
// without it and hands both results to check, with the post-run DFS: a plan
// that scans a stored result executes over it, and it also holds the
// family's (identical) base data. extra options apply to the session with
// the catalog.
func optimizeFamily(t *testing.T, seed int64, check func(t *testing.T, c *gen.Case, runDFS *stubby.DFS, with, without *stubby.Result), extra ...stubby.SessionOption) {
	ctx := context.Background()
	fam := gen.Family(seed, 3, gen.Options{})
	cat, err := stubby.NewReuseCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	sess, plain := reuseSession(t, fam[0], cat, extra...), reuseSession(t, fam[0], nil)
	if err := sess.Profile(ctx, fam[0].Workflow, fam[0].DFS); err != nil {
		t.Fatal(err)
	}
	runDFS := fam[0].DFS.Clone()
	if _, err := sess.Run(ctx, runDFS, fam[0].Workflow); err != nil {
		t.Fatal(err)
	}
	if st, ok := sess.ReuseCatalogStats(); !ok || st.Entries == 0 {
		t.Fatalf("producing run published nothing: %+v", st)
	}
	for k := 1; k < len(fam); k++ {
		c := fam[k]
		t.Run(fmt.Sprintf("member%d", k), func(t *testing.T) {
			if err := sess.Profile(ctx, c.Workflow, c.DFS); err != nil {
				t.Fatal(err)
			}
			with, err := sess.Optimize(ctx, c.Workflow)
			if err != nil {
				t.Fatal(err)
			}
			without, err := plain.Optimize(ctx, c.Workflow)
			if err != nil {
				t.Fatal(err)
			}
			check(t, c, runDFS, with, without)
		})
	}
}

func TestReuseEquivalenceFamilies(t *testing.T) {
	members, adopters := 0, 0
	for _, seed := range reuseFamilySeeds {
		t.Run(fmt.Sprintf("family%d", seed), func(t *testing.T) {
			optimizeFamily(t, seed, func(t *testing.T, c *gen.Case, runDFS *stubby.DFS, with, without *stubby.Result) {
				members++
				if with.ReusedSubplans == 0 {
					assertSamePlan(t, without, with)
					return
				}
				adopters++
				subject := c.Subject()
				subject.DFS = runDFS
				ref, err := subject.Reference()
				if err != nil {
					t.Fatal(err)
				}
				if err := subject.CheckPlan(ref, "reuse-rewritten", with.Plan); err != nil {
					t.Error(err)
				}
			})
		})
	}
	t.Logf("%d of %d members adopted a reuse rewrite", adopters, members)
	// The floor is over the whole sweep: a -run filter that selects some
	// families checks each member but not the count.
	if members == 2*len(reuseFamilySeeds) && adopters < minReuseAdopters {
		t.Errorf("want >= %d adopters", minReuseAdopters)
	}
}

// TestReuseMonotoneFamilies is the optimizer's contract for the catalog: a
// family member planned against it costs no more by What-if estimate than
// planned without it.
func TestReuseMonotoneFamilies(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("family%d", seed), func(t *testing.T) {
			optimizeFamily(t, seed, func(t *testing.T, _ *gen.Case, _ *stubby.DFS, with, without *stubby.Result) {
				if with.EstimatedCost > without.EstimatedCost {
					t.Errorf("with the catalog %.1f s (%d sub-plans reused), without it %.1f s (%+.1f%%)",
						with.EstimatedCost, with.ReusedSubplans, without.EstimatedCost,
						100*(with.EstimatedCost/without.EstimatedCost-1))
				}
			})
		})
	}
}

// TestReuseNoMatchByteIdentical is the metamorphic guard: attaching a
// populated catalog to the session must not perturb optimization of
// workflows that match nothing in it — byte-identical plans, equal costs,
// and not a single extra What-if estimate.
func TestReuseNoMatchByteIdentical(t *testing.T) {
	ctx := context.Background()

	// Populate a catalog from one family's producing run.
	fam := gen.Family(4, 2, gen.Options{})
	cat, err := stubby.NewReuseCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	seedSess := reuseSession(t, fam[0], cat)
	if err := seedSess.Profile(ctx, fam[0].Workflow, fam[0].DFS); err != nil {
		t.Fatal(err)
	}
	if _, err := seedSess.Run(ctx, fam[0].DFS.Clone(), fam[0].Workflow); err != nil {
		t.Fatal(err)
	}
	if st, _ := seedSess.ReuseCatalogStats(); st.Entries == 0 {
		t.Fatal("catalog is empty; the guard would be vacuous")
	}

	// Disjoint generator seeds: different base data, so no sub-fingerprint
	// in these workflows can match the family's entries.
	for _, seed := range []int64{21, 22, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := gen.Generate(seed, gen.Options{})
			plain := reuseSession(t, c, nil)
			if err := plain.Profile(ctx, c.Workflow, c.DFS); err != nil {
				t.Fatal(err)
			}
			want, err := plain.Optimize(ctx, c.Workflow)
			if err != nil {
				t.Fatal(err)
			}
			withCat := reuseSession(t, c, cat)
			got, err := withCat.Optimize(ctx, c.Workflow)
			if err != nil {
				t.Fatal(err)
			}
			if got.ReusedSubplans != 0 {
				t.Errorf("seed %d: %d sub-plans reused across unrelated base data", seed, got.ReusedSubplans)
			}
			if got.WhatIfCalls != want.WhatIfCalls {
				t.Errorf("seed %d: attaching the catalog changed What-if traffic: %d vs %d calls",
					seed, got.WhatIfCalls, want.WhatIfCalls)
			}
			assertSamePlan(t, want, got)
		})
	}
}
