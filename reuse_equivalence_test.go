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
// against that catalog. Every rewritten plan must (a) actually reuse at
// least one stored sub-DAG and (b) produce tuple-for-tuple identical sink
// outputs to the member's own identity plan. A metamorphic guard pins the
// other side: workflows with no catalog match must optimize to
// byte-identical plans whether or not a (populated) catalog is attached.

// reuseFamilySeeds are the family seeds the suite sweeps. Each must yield
// at least one adopted reuse rewrite per non-reference member — a seed
// that stops reusing is a regression in the pre-pass, not test flake,
// because everything here is deterministic.
var reuseFamilySeeds = []int64{1, 2, 3, 5, 8}

// reuseRRSEvals caps the per-member search budget; equivalence must hold
// at any budget.
const reuseRRSEvals = 40

func reuseSession(t *testing.T, c *gen.Case, cat *stubby.ReuseCatalog) *stubby.Session {
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
	sess, err := stubby.NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestReuseEquivalenceFamilies(t *testing.T) {
	ctx := context.Background()
	for _, seed := range reuseFamilySeeds {
		seed := seed
		t.Run(fmt.Sprintf("family%d", seed), func(t *testing.T) {
			fam := gen.Family(seed, 3, gen.Options{})
			cat, err := stubby.NewReuseCatalog(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer cat.Close()

			// Member 0 is the producing run: profile, execute, and let the
			// session publish every materialized intermediate to the catalog.
			sess := reuseSession(t, fam[0], cat)
			if err := sess.Profile(ctx, fam[0].Workflow, fam[0].DFS); err != nil {
				t.Fatal(err)
			}
			runDFS := fam[0].DFS.Clone()
			if _, err := sess.Run(ctx, runDFS, fam[0].Workflow); err != nil {
				t.Fatal(err)
			}
			st, ok := sess.ReuseCatalogStats()
			if !ok || st.Entries == 0 {
				t.Fatalf("producing run published nothing: %+v", st)
			}

			for k := 1; k < len(fam); k++ {
				k := k
				t.Run(fmt.Sprintf("member%d", k), func(t *testing.T) {
					c := fam[k]
					if err := sess.Profile(ctx, c.Workflow, c.DFS); err != nil {
						t.Fatal(err)
					}
					res, err := sess.Optimize(ctx, c.Workflow)
					if err != nil {
						t.Fatal(err)
					}
					if res.ReusedSubplans < 1 {
						t.Fatalf("seed %d member %d: optimizer reused no stored sub-plans", seed, k)
					}

					// Oracle: the rewritten plan scans datasets member 0
					// materialized, so it executes over the post-run DFS —
					// which also holds the (identical) base data the identity
					// reference needs.
					subject := c.Subject()
					subject.DFS = runDFS
					ref, err := subject.Reference()
					if err != nil {
						t.Fatal(err)
					}
					if err := subject.CheckPlan(ref, "reuse-rewritten", res.Plan); err != nil {
						t.Error(err)
					}
				})
			}
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
