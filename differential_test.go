package stubby_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/gen"
)

// The differential regression suite proves the estimate cache transparent:
// for every paper workload × every registered planner, optimization with a
// shared, concurrently-used cache returns byte-identical plans and equal
// estimated costs to optimization without one — including under
// Parallelism > 1 (CI runs this file under -race). Any fingerprint
// collision, stale entry, remapping slip, or cross-workflow
// cross-pollination through the shared cache shows up here as a plan or
// cost diff.

// differentialSize keeps the 8-workload × all-planner matrix fast while
// still exercising every transformation the workloads trigger.
const differentialSize = 0.1

// differentialRRSEvals caps the configuration-search budget for the
// differential pairs. Transparency must hold at any budget, and both sides
// of every pair use the same budget, so a small one keeps the full matrix
// tractable under -race. The golden-snapshot suite covers the default
// budget.
const differentialRRSEvals = 40

// differentialGenSeeds is how many generator seeds (1..N, the committed
// corpus seeds first) the incremental-vs-monolithic differential adds to
// the paper workloads.
const differentialGenSeeds = 30

// differentialWorkloads builds and profiles every paper workload once for
// the whole suite (profiling dominates runtime, and both sides of each
// differential pair must start from the same annotated plan).
var (
	diffOnce sync.Once
	diffWls  map[string]*stubby.Workload
)

func differentialWorkloads(t *testing.T) map[string]*stubby.Workload {
	t.Helper()
	diffOnce.Do(func() {
		diffWls = make(map[string]*stubby.Workload)
		for _, abbr := range stubby.Workloads() {
			diffWls[abbr] = profiledWorkload(t, abbr, differentialSize, 1)
		}
	})
	if diffWls == nil {
		t.Fatal("workload preparation failed earlier")
	}
	return diffWls
}

// optimizeWith runs one Optimize for the differential pair. parallelism > 1
// engages the concurrent subplan search on the cached side.
func optimizeWith(t *testing.T, wl *stubby.Workload, planner string,
	cache *stubby.EstimateCache, parallelism int) *stubby.Result {
	t.Helper()
	opts := []stubby.SessionOption{
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(1),
		stubby.WithPlanner(planner),
		stubby.WithParallelism(parallelism),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: differentialRRSEvals}),
	}
	if cache != nil {
		opts = append(opts, stubby.WithEstimateCache(cache))
	}
	sess, err := stubby.NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Optimize(context.Background(), wl.Workflow)
	if err != nil {
		t.Fatalf("%s on %s: %v", planner, wl.Abbr, err)
	}
	return res
}

// TestDifferentialCachedVsUncached is the full matrix: eight workloads ×
// every registered planner, uncached serial vs cached parallel. One cache
// is shared across the entire matrix, so reuse across workloads and
// planners must also stay transparent.
func TestDifferentialCachedVsUncached(t *testing.T) {
	wls := differentialWorkloads(t)
	names, err := func() ([]string, error) {
		s, err := stubby.NewSession()
		if err != nil {
			return nil, err
		}
		return s.Planners(), nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	shared := stubby.NewEstimateCache(0)
	for _, abbr := range stubby.Workloads() {
		wl := wls[abbr]
		for _, planner := range names {
			t.Run(abbr+"/"+planner, func(t *testing.T) {
				uncached := optimizeWith(t, wl, planner, nil, 1)
				cached := optimizeWith(t, wl, planner, shared, 4)
				assertSamePlan(t, uncached, cached)
			})
		}
	}
	if st := shared.Stats(); st.Lookups() == 0 {
		t.Fatal("shared cache was never consulted")
	}
}

// TestDifferentialOptimizeAllSharedCache: a concurrent OptimizeAll fan-out
// over all eight workloads through one shared cache must match per-workflow
// uncached optimization, and a second fan-out re-optimizing two of them
// (every estimate already cached) must recompute nothing.
func TestDifferentialOptimizeAllSharedCache(t *testing.T) {
	wls := differentialWorkloads(t)
	abbrs := stubby.Workloads()
	var flows []*stubby.Workflow
	for _, abbr := range abbrs {
		flows = append(flows, wls[abbr].Workflow)
	}
	// Generous capacity so the repeat fan-out below is pure reuse (the
	// matrix test above already stresses transparency under eviction).
	cache := stubby.NewEstimateCache(1 << 19)
	cachedSess, err := stubby.NewSession(
		stubby.WithSeed(1),
		stubby.WithParallelism(4),
		stubby.WithEstimateCache(cache),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: differentialRRSEvals}),
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := cachedSess.OptimizeAll(context.Background(), flows...)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := cachedSess.EstimateCacheStats()
	if !ok || st.Hits == 0 {
		t.Fatalf("shared cache saw no reuse across the fan-out: %+v", st)
	}
	if st.Evictions != 0 {
		t.Logf("note: %d evictions despite generous capacity", st.Evictions)
	}
	for i, abbr := range abbrs {
		uncachedSess, err := stubby.NewSession(stubby.WithSeed(1), stubby.WithParallelism(1),
			stubby.WithOptimizerOptions(stubby.Options{RRSEvals: differentialRRSEvals}))
		if err != nil {
			t.Fatal(err)
		}
		uncached, err := uncachedSess.Optimize(context.Background(), wls[abbr].Workflow)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(abbr, func(t *testing.T) {
			assertSamePlan(t, uncached, results[i])
		})
	}
	// Second fan-out over two already-optimized workflows: the search is
	// deterministic, so every estimate request replays and must hit.
	repeats, err := cachedSess.OptimizeAll(context.Background(), wls["IR"].Workflow, wls["BA"].Workflow)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evictions == 0 {
		for i, res := range repeats {
			if res.WhatIfComputed != 0 {
				t.Errorf("repeat %d recomputed %d estimates, want 0 (requests=%d)",
					i, res.WhatIfComputed, res.WhatIfCalls)
			}
		}
	}
	assertSamePlan(t, results[0], repeats[0])
	assertSamePlan(t, results[4], repeats[1])
}

// TestDifferentialIncrementalVsMonolithic pins the incremental estimator's
// end-to-end transparency directly: a search whose probes delta-estimate
// through whatif.Prepared must choose a byte-identical plan at an equal
// cost, asking the same number of What-if questions, as a search
// re-estimating every probe monolithically (Options.DisableIncremental, the
// reference path) — the optimizer-level witness of the estimator's
// bitwise-equivalence contract (the flow/scheduling split, slot-pool
// snapshots, card memoization, and tail truncation all sit under this
// test). The eight paper workloads cover the transformations; generated
// workflows cover arbitrary DAG shapes.
func TestDifferentialIncrementalVsMonolithic(t *testing.T) {
	type subject struct {
		name     string
		cluster  *stubby.Cluster
		workflow *stubby.Workflow
		// multiJob subjects must also show the incremental path skipping
		// flow work; a generated single-job plan has no prefix to skip.
		multiJob bool
	}
	var subjects []subject
	wls := differentialWorkloads(t)
	for _, abbr := range stubby.Workloads() {
		subjects = append(subjects, subject{abbr, wls[abbr].Cluster, wls[abbr].Workflow, true})
	}
	for seed := int64(1); seed <= differentialGenSeeds; seed++ {
		c := profiledGenCase(t, seed, gen.Options{})
		subjects = append(subjects, subject{fmt.Sprintf("gen-%d", seed), c.Cluster, c.Workflow, false})
	}
	for _, sub := range subjects {
		sub := sub
		t.Run(sub.name, func(t *testing.T) {
			run := func(monolithic bool) *stubby.Result {
				sess, err := stubby.NewSession(
					stubby.WithCluster(sub.cluster),
					stubby.WithSeed(1),
					stubby.WithParallelism(1),
					stubby.WithOptimizerOptions(stubby.Options{
						RRSEvals: differentialRRSEvals, DisableIncremental: monolithic,
					}),
				)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sess.Optimize(context.Background(), sub.workflow)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			mono := run(true)
			incr := run(false)
			assertSamePlan(t, mono, incr)
			if mono.WhatIfCalls != incr.WhatIfCalls {
				t.Errorf("incremental estimation changed the search itself: %d vs %d requests",
					mono.WhatIfCalls, incr.WhatIfCalls)
			}
			if sub.multiJob && incr.FlowCards >= mono.FlowCards {
				t.Errorf("incremental path saved no flow work: %d vs %d cards",
					incr.FlowCards, mono.FlowCards)
			}
		})
	}
}

// assertSamePlan requires byte-identical exported plans and equal costs.
func assertSamePlan(t *testing.T, want, got *stubby.Result) {
	t.Helper()
	if want.EstimatedCost != got.EstimatedCost {
		t.Errorf("EstimatedCost diverged: uncached %.9f vs cached %.9f",
			want.EstimatedCost, got.EstimatedCost)
	}
	wb := exportBytes(t, want.Plan)
	gb := exportBytes(t, got.Plan)
	if !bytes.Equal(wb, gb) {
		t.Errorf("plans diverged:\n--- uncached (%d bytes)\n%.2000s\n--- cached (%d bytes)\n%.2000s",
			len(wb), wb, len(gb), gb)
	}
}
