package bench

import (
	"bytes"
	"fmt"

	"github.com/stubby-mr/stubby/internal/optimizer"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/whatif"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// WhatIfRun measures the estimate cache's effect on one workload: the full
// Stubby search runs once without a cache and once against a cache shared
// across the whole table, counting What-if activity both ways and checking
// the transparency contract (identical plans, equal costs) as it goes.
type WhatIfRun struct {
	Workload string
	// UncachedCalls / UncachedComputed are the What-if requests issued and
	// the full monolithic computations run by the cache-off search.
	// Incremental delta estimates count as requests but not computations,
	// so requests exceed computations even without a cache.
	UncachedCalls    uint64
	UncachedComputed uint64
	// CachedRequests / CachedComputed are the same split for the cached
	// search. Requests must equal the uncached search's (caching cannot
	// change the search); the computation difference is the full-estimate
	// work the cache absorbed.
	CachedRequests uint64
	CachedComputed uint64
	// HitRatePct is the share of the uncached search's full computations
	// the cache absorbed: 100 * (UncachedComputed - CachedComputed) /
	// UncachedComputed.
	HitRatePct float64
	// RepeatComputed is the number of full computations when the same
	// workload is optimized a second time against the shared cache — the
	// OptimizeAll amortization case (repeated or overlapping workflows).
	// With sufficient capacity it is zero: the deterministic search
	// replays entirely from the cache.
	RepeatComputed uint64
	// PlansIdentical reports whether cached, uncached, and repeat searches
	// chose byte-identical plans (they must; the differential suite
	// enforces it).
	PlansIdentical bool
	// Makespan is the estimated cost of the (shared) chosen plan.
	Makespan float64
}

// WhatIfCounts runs the cache-on/off comparison over every paper workload
// with one cache shared across the whole sweep, mirroring an OptimizeAll
// fan-out sharing a session cache.
func (h *Harness) WhatIfCounts() ([]WhatIfRun, error) {
	// Sized so the sweep's full working set stays resident; the default
	// capacity targets long-running services where bounding memory matters
	// more than a perfect replay.
	cache := whatif.NewCache(1 << 18)
	var out []WhatIfRun
	for _, abbr := range workloads.Abbrs() {
		wl, err := h.workload(abbr)
		if err != nil {
			return nil, err
		}
		uncached, err := optimizer.New(wl.Cluster, optimizer.Options{Seed: h.cfg.Seed}).
			Optimize(wl.Workflow)
		if err != nil {
			return nil, fmt.Errorf("uncached %s: %w", abbr, err)
		}
		cached, err := optimizer.New(wl.Cluster, optimizer.Options{Seed: h.cfg.Seed, EstimateCache: cache}).
			Optimize(wl.Workflow)
		if err != nil {
			return nil, fmt.Errorf("cached %s: %w", abbr, err)
		}
		repeat, err := optimizer.New(wl.Cluster, optimizer.Options{Seed: h.cfg.Seed, EstimateCache: cache}).
			Optimize(wl.Workflow)
		if err != nil {
			return nil, fmt.Errorf("repeat %s: %w", abbr, err)
		}
		ub, err := planio.Encode(uncached.Plan)
		if err != nil {
			return nil, err
		}
		cb, err := planio.Encode(cached.Plan)
		if err != nil {
			return nil, err
		}
		rb, err := planio.Encode(repeat.Plan)
		if err != nil {
			return nil, err
		}
		run := WhatIfRun{
			Workload:         abbr,
			UncachedCalls:    uncached.WhatIfCalls,
			UncachedComputed: uncached.WhatIfComputed,
			CachedRequests:   cached.WhatIfCalls,
			CachedComputed:   cached.WhatIfComputed,
			RepeatComputed:   repeat.WhatIfComputed,
			PlansIdentical: bytes.Equal(ub, cb) && bytes.Equal(ub, rb) &&
				uncached.EstimatedCost == cached.EstimatedCost &&
				uncached.EstimatedCost == repeat.EstimatedCost,
			Makespan: cached.EstimatedCost,
		}
		if run.UncachedComputed > 0 {
			run.HitRatePct = 100 * float64(run.UncachedComputed-run.CachedComputed) / float64(run.UncachedComputed)
		}
		out = append(out, run)
	}
	return out, nil
}
