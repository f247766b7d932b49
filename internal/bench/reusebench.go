package bench

import (
	"fmt"
	"os"

	"github.com/stubby-mr/stubby/internal/catalog"
	"github.com/stubby-mr/stubby/internal/gen"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/optimizer"
	"github.com/stubby-mr/stubby/internal/profile"
)

// ReuseRow measures the sub-plan reuse catalog on one member of an
// overlapping workflow family (gen.Family): member 0 runs to completion and
// publishes its materialized intermediates; each later member — same prefix,
// different suffix — is then optimized against that catalog, once without
// and once with reuse enabled.
type ReuseRow struct {
	// FamilySeed identifies the family; Member is the sibling's index
	// (members >= 1 only: member 0 is the producer, not a consumer).
	FamilySeed int64 `json:"family_seed"`
	Member     int   `json:"member"`
	// Jobs is the member's input job count; PlanJobs the job count of the
	// reuse-enabled optimized plan (reuse removes whole closures).
	Jobs     int `json:"jobs"`
	PlanJobs int `json:"plan_jobs"`
	// ReusedSubplans counts rooted sub-DAGs the pre-pass replaced with
	// scans of stored results.
	ReusedSubplans int `json:"reused_subplans"`
	// CatalogHits / CatalogMisses are this optimization's Lookup deltas;
	// HitRatio is hits over total lookups.
	CatalogHits   uint64  `json:"catalog_hits"`
	CatalogMisses uint64  `json:"catalog_misses"`
	HitRatio      float64 `json:"hit_ratio"`
	// BaselineCost / ReuseCost are the estimated makespans of the plans
	// chosen without and with the catalog attached; CostRatio is
	// baseline over reuse (>= 1 means reuse helped or broke even).
	BaselineCost float64 `json:"baseline_cost"`
	ReuseCost    float64 `json:"reuse_cost"`
	CostRatio    float64 `json:"cost_ratio"`
}

// ReuseBenchSeeds are the family seeds the reuse benchmark measures and
// ReuseBenchMembers how many siblings each family has (member 0 plus
// ReuseBenchMembers-1 consumers). ReuseBenchRRSEvals caps the configuration
// search so rows measure the reuse pre-pass, not RRS wall time.
var ReuseBenchSeeds = []int64{1, 2, 3, 5, 8}

const (
	ReuseBenchMembers  = 3
	ReuseBenchRRSEvals = 40
)

// ReuseBench measures cross-workflow sub-plan reuse over generator-produced
// overlapping families. For each seed: member 0 is profiled, executed on the
// simulated cluster, and its intermediates published to a fresh on-disk
// catalog; members 1..ReuseBenchMembers-1 are profiled identically (shared
// prefixes profile identically, so their rooted fingerprints collide with
// the published ones) and optimized twice — without and with the catalog.
func (h *Harness) ReuseBench(seeds []int64) ([]ReuseRow, error) {
	if seeds == nil {
		seeds = ReuseBenchSeeds
	}
	var out []ReuseRow
	for _, seed := range seeds {
		rows, err := h.reuseFamily(seed)
		if err != nil {
			return nil, fmt.Errorf("reuse family %d: %w", seed, err)
		}
		out = append(out, rows...)
	}
	return out, nil
}

func (h *Harness) reuseFamily(seed int64) ([]ReuseRow, error) {
	fam := gen.Family(seed, ReuseBenchMembers, gen.Options{})
	// One profiler seed per family: siblings share their prefix byte for
	// byte, so profiling them with the same sampling seed reproduces the
	// same prefix annotations — which is what makes the rooted
	// fingerprints collide across members.
	for _, c := range fam {
		prof := profile.NewProfiler(c.Cluster, h.cfg.ProfileFraction, seed)
		if err := prof.Annotate(c.Workflow, c.DFS); err != nil {
			return nil, err
		}
	}

	dir, err := os.MkdirTemp("", "stubby-reuse-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cat, err := catalog.Open(dir)
	if err != nil {
		return nil, err
	}
	defer cat.Close()

	// Member 0 runs to completion; its materialized intermediates become
	// the catalog the siblings optimize against.
	runDFS := fam[0].DFS.Clone()
	if _, err := mrsim.NewEngine(fam[0].Cluster, runDFS).RunWorkflow(fam[0].Workflow); err != nil {
		return nil, err
	}
	if err := cat.PublishRun(fam[0].Workflow, runDFS); err != nil {
		return nil, err
	}

	var out []ReuseRow
	for m := 1; m < len(fam); m++ {
		c := fam[m]
		base, err := optimizer.New(c.Cluster, optimizer.Options{
			Seed: h.cfg.Seed, RRSEvals: ReuseBenchRRSEvals,
		}).Optimize(c.Workflow)
		if err != nil {
			return nil, err
		}
		before := cat.Stats()
		res, err := optimizer.New(c.Cluster, optimizer.Options{
			Seed: h.cfg.Seed, RRSEvals: ReuseBenchRRSEvals, ReuseCatalog: cat,
		}).Optimize(c.Workflow)
		if err != nil {
			return nil, err
		}
		after := cat.Stats()
		row := ReuseRow{
			FamilySeed:     seed,
			Member:         m,
			Jobs:           len(c.Workflow.Jobs),
			PlanJobs:       len(res.Plan.Jobs),
			ReusedSubplans: res.ReusedSubplans,
			CatalogHits:    after.Hits - before.Hits,
			CatalogMisses:  after.Misses - before.Misses,
			BaselineCost:   base.EstimatedCost,
			ReuseCost:      res.EstimatedCost,
		}
		if total := row.CatalogHits + row.CatalogMisses; total > 0 {
			row.HitRatio = float64(row.CatalogHits) / float64(total)
		}
		if row.ReuseCost > 0 {
			row.CostRatio = row.BaselineCost / row.ReuseCost
		}
		out = append(out, row)
	}
	return out, nil
}
