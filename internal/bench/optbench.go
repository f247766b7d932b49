package bench

import (
	"fmt"
	"math"
	"time"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/optimizer"
	"github.com/stubby-mr/stubby/internal/whatif"
)

// OptimizerBenchRow measures the incremental What-if estimator's effect on
// one workload: the full Stubby search runs with incremental estimation
// forced off (every configuration probe re-estimates the whole workflow
// monolithically) and on (probes delta-estimate only the affected cone),
// recording wall-clock and estimator activity both ways and checking the
// equivalence contract (identical plans, equal costs) as it goes.
type OptimizerBenchRow struct {
	Workload string `json:"workload"`
	// Jobs is the input workflow's job count.
	Jobs int `json:"jobs"`
	// MonolithicMS / IncrementalMS are optimize wall-clock times (best of
	// OptimizerBenchRuns attempts, to damp scheduler noise).
	MonolithicMS  float64 `json:"monolithic_ms"`
	IncrementalMS float64 `json:"incremental_ms"`
	// Calls / Computed / FlowCards pairs split estimator activity per mode:
	// requests issued, full monolithic estimates run, and per-job flow
	// computations performed.
	MonolithicCalls      uint64 `json:"monolithic_whatif_calls"`
	MonolithicComputed   uint64 `json:"monolithic_whatif_computed"`
	MonolithicFlowCards  uint64 `json:"monolithic_flow_cards"`
	IncrementalCalls     uint64 `json:"incremental_whatif_calls"`
	IncrementalComputed  uint64 `json:"incremental_whatif_computed"`
	IncrementalFlowCards uint64 `json:"incremental_flow_cards"`
	// WallSpeedup is MonolithicMS / IncrementalMS; FlowCardRatio is
	// MonolithicFlowCards / IncrementalFlowCards.
	WallSpeedup   float64 `json:"wall_speedup"`
	FlowCardRatio float64 `json:"flow_card_ratio"`
	// PlansIdentical reports whether both modes chose byte-identical plans
	// with equal estimated costs (they must — incremental estimation is
	// bit-transparent).
	PlansIdentical bool `json:"plans_identical"`
}

// OptimizerBenchRuns is how many times each (workload, mode) optimization
// repeats; rows report the fastest attempt.
const OptimizerBenchRuns = 3

// OptimizerBench runs the incremental-vs-monolithic comparison over the
// given workloads.
func (h *Harness) OptimizerBench(abbrs []string) ([]OptimizerBenchRow, error) {
	var out []OptimizerBenchRow
	for _, abbr := range abbrs {
		wl, err := h.workload(abbr)
		if err != nil {
			return nil, err
		}
		run := func(disable bool) (*optimizer.Result, float64, error) {
			best := 0.0
			var res *optimizer.Result
			for i := 0; i < OptimizerBenchRuns; i++ {
				opt := optimizer.New(wl.Cluster, optimizer.Options{
					Seed: h.cfg.Seed, DisableIncremental: disable,
				})
				t0 := time.Now()
				r, err := opt.Optimize(wl.Workflow)
				ms := float64(time.Since(t0).Microseconds()) / 1000
				if err != nil {
					return nil, 0, err
				}
				if res == nil || ms < best {
					best = ms
					res = r
				}
			}
			return res, best, nil
		}
		mono, monoMS, err := run(true)
		if err != nil {
			return nil, fmt.Errorf("monolithic %s: %w", abbr, err)
		}
		inc, incMS, err := run(false)
		if err != nil {
			return nil, fmt.Errorf("incremental %s: %w", abbr, err)
		}
		monoPlan, err := planDigest(mono.Plan)
		if err != nil {
			return nil, err
		}
		incPlan, err := planDigest(inc.Plan)
		if err != nil {
			return nil, err
		}
		row := OptimizerBenchRow{
			Workload:             abbr,
			Jobs:                 len(wl.Workflow.Jobs),
			MonolithicMS:         monoMS,
			IncrementalMS:        incMS,
			MonolithicCalls:      mono.WhatIfCalls,
			MonolithicComputed:   mono.WhatIfComputed,
			MonolithicFlowCards:  mono.FlowCards,
			IncrementalCalls:     inc.WhatIfCalls,
			IncrementalComputed:  inc.WhatIfComputed,
			IncrementalFlowCards: inc.FlowCards,
			PlansIdentical: monoPlan == incPlan &&
				mono.EstimatedCost == inc.EstimatedCost,
		}
		if incMS > 0 {
			row.WallSpeedup = monoMS / incMS
		}
		if inc.FlowCards > 0 {
			row.FlowCardRatio = float64(mono.FlowCards) / float64(inc.FlowCards)
		}
		out = append(out, row)
	}
	return out, nil
}

// RobustnessRow reports one workload's optimized plan under perturbation:
// the Monte-Carlo makespan distribution of the chosen plan's scheduling
// layer under the standard fault profile (task failures, stragglers,
// heterogeneous node classes, speculation).
type RobustnessRow struct {
	Workload string `json:"workload"`
	Jobs     int    `json:"jobs"`
	Samples  int    `json:"samples"`
	// NominalSec is the fault-free estimated makespan of the chosen plan;
	// the distribution columns are perturbed replays of the same plan.
	NominalSec float64 `json:"nominal_sec"`
	MeanSec    float64 `json:"mean_sec"`
	P95Sec     float64 `json:"p95_sec"`
	P99Sec     float64 `json:"p99_sec"`
	// FailedOut counts samples in which some task exhausted its retry bound.
	FailedOut int `json:"failed_out"`
}

// RobustnessBenchSamples is the per-workload Monte-Carlo sample count and
// RobustnessBenchSeed the base perturbation seed, fixed so rows are
// reproducible across runs and machines.
const (
	RobustnessBenchSamples = 32
	RobustnessBenchSeed    = 42
)

// RobustnessBench optimizes each workload once with robustness scoring
// attached (standard fault profile) and reports the chosen plan's makespan
// distribution. Workloads in the fallback estimation regime produce no row.
func (h *Harness) RobustnessBench(abbrs []string) ([]RobustnessRow, error) {
	var out []RobustnessRow
	for _, abbr := range abbrs {
		wl, err := h.workload(abbr)
		if err != nil {
			return nil, err
		}
		opt := optimizer.New(wl.Cluster, optimizer.Options{
			Seed: h.cfg.Seed,
			Robustness: &whatif.RobustnessOptions{
				Model:   mrsim.StandardFaultProfile(RobustnessBenchSeed),
				Samples: RobustnessBenchSamples,
			},
		})
		res, err := opt.Optimize(wl.Workflow)
		if err != nil {
			return nil, fmt.Errorf("robustness %s: %w", abbr, err)
		}
		if res.Robustness == nil {
			continue
		}
		out = append(out, RobustnessRow{
			Workload:   abbr,
			Jobs:       len(res.Plan.Jobs),
			Samples:    res.Robustness.Samples,
			NominalSec: res.EstimatedCost,
			MeanSec:    res.Robustness.Mean,
			P95Sec:     res.Robustness.P95,
			P99Sec:     res.Robustness.P99,
			FailedOut:  res.Robustness.FailedOut,
		})
	}
	return out, nil
}

// MultiJobThreshold is the job count at which a workload counts as
// multi-job for the optimizer benchmark's aggregate (the regime incremental
// estimation targets: optimization units are proper subsets of the plan).
const MultiJobThreshold = 4

// OptBenchAggregate summarizes a set of OptimizerBenchRows.
type OptBenchAggregate struct {
	Workloads []string `json:"workloads"`
	// WallSpeedup is total monolithic wall-clock over total incremental
	// wall-clock; GeomeanWallSpeedup is the per-workload geometric mean.
	WallSpeedup        float64 `json:"wall_speedup"`
	GeomeanWallSpeedup float64 `json:"geomean_wall_speedup"`
	// FlowCardRatio is total monolithic flow computations over total
	// incremental flow computations.
	FlowCardRatio float64 `json:"flow_card_ratio"`
	// PlansIdentical is the conjunction of the rows' equivalence checks.
	PlansIdentical bool `json:"plans_identical"`
}

// OptBenchReport is the JSON document stubby-bench -bench-optimizer emits
// (BENCH_optimizer.json) so future changes have a perf trajectory to
// compare against.
type OptBenchReport struct {
	SizeFactor float64             `json:"size_factor"`
	Seed       int64               `json:"seed"`
	Rows       []OptimizerBenchRow `json:"rows"`
	All        OptBenchAggregate   `json:"all"`
	// MultiJob aggregates the workloads with >= MultiJobThreshold jobs.
	MultiJob OptBenchAggregate `json:"multi_job"`
	// Robustness holds per-workload makespan distributions of the chosen
	// plans under the standard fault profile (see RobustnessBench).
	Robustness []RobustnessRow `json:"robustness"`
	// Reuse holds cross-workflow sub-plan reuse hit rates over the
	// generator-produced overlapping families (see ReuseBench).
	Reuse []ReuseRow `json:"reuse,omitempty"`
}

func aggregate(rows []OptimizerBenchRow) OptBenchAggregate {
	agg := OptBenchAggregate{PlansIdentical: true}
	var monoMS, incMS float64
	var monoCards, incCards uint64
	logSum := 0.0
	for _, r := range rows {
		agg.Workloads = append(agg.Workloads, r.Workload)
		monoMS += r.MonolithicMS
		incMS += r.IncrementalMS
		monoCards += r.MonolithicFlowCards
		incCards += r.IncrementalFlowCards
		if r.WallSpeedup > 0 {
			logSum += math.Log(r.WallSpeedup)
		}
		agg.PlansIdentical = agg.PlansIdentical && r.PlansIdentical
	}
	if incMS > 0 {
		agg.WallSpeedup = monoMS / incMS
	}
	if incCards > 0 {
		agg.FlowCardRatio = float64(monoCards) / float64(incCards)
	}
	if len(rows) > 0 {
		agg.GeomeanWallSpeedup = math.Exp(logSum / float64(len(rows)))
	}
	return agg
}

// OptimizerBenchReport assembles the JSON report from measured rows.
func OptimizerBenchReport(rows []OptimizerBenchRow, sizeFactor float64, seed int64) OptBenchReport {
	rep := OptBenchReport{SizeFactor: sizeFactor, Seed: seed, Rows: rows, All: aggregate(rows)}
	var multi []OptimizerBenchRow
	for _, r := range rows {
		if r.Jobs >= MultiJobThreshold {
			multi = append(multi, r)
		}
	}
	rep.MultiJob = aggregate(multi)
	return rep
}

// GuardWallSlack is the regression tolerance GuardOptimizerBench allows on
// the nil-model optimizer wall time relative to the committed baseline.
const GuardWallSlack = 1.05

// GuardOptimizerBench is the CI smoke over a fresh optimizer-bench report:
// robustness rows must be present and well-formed for every measured
// workload, and the nil-model (no fault model attached) optimizer wall
// time must not regress more than GuardWallSlack relative to the baseline
// report — the fault-model machinery is opt-in, and the default path must
// not pay for it. Wall times are compared as totals across all workloads
// to damp per-row noise.
func GuardOptimizerBench(fresh, baseline OptBenchReport) error {
	if len(fresh.Robustness) == 0 {
		return fmt.Errorf("bench guard: no robustness rows emitted")
	}
	// Sub-plan reuse must demonstrably fire on the overlapping families:
	// every consumer member's optimization resolves at least one published
	// fingerprint (hit ratio > 0) and replaces at least one sub-DAG.
	if len(fresh.Reuse) == 0 {
		return fmt.Errorf("bench guard: no sub-plan reuse rows emitted")
	}
	for _, r := range fresh.Reuse {
		if r.CatalogHits == 0 || r.HitRatio <= 0 {
			return fmt.Errorf("bench guard: family %d member %d had no catalog hits: %+v", r.FamilySeed, r.Member, r)
		}
		if r.ReusedSubplans < 1 {
			return fmt.Errorf("bench guard: family %d member %d reused no sub-plans despite %d catalog hits", r.FamilySeed, r.Member, r.CatalogHits)
		}
		if r.PlanJobs >= r.Jobs {
			return fmt.Errorf("bench guard: family %d member %d reuse plan did not shrink: %d -> %d jobs", r.FamilySeed, r.Member, r.Jobs, r.PlanJobs)
		}
	}
	byName := make(map[string]bool, len(fresh.Robustness))
	for _, r := range fresh.Robustness {
		if r.Samples <= 0 || r.NominalSec <= 0 || r.MeanSec <= 0 ||
			r.P95Sec <= 0 || r.P99Sec <= 0 || r.P99Sec < r.P95Sec {
			return fmt.Errorf("bench guard: malformed robustness row for %s: %+v", r.Workload, r)
		}
		byName[r.Workload] = true
	}
	baseRows := make(map[string]OptimizerBenchRow, len(baseline.Rows))
	for _, r := range baseline.Rows {
		baseRows[r.Workload] = r
	}
	for _, row := range fresh.Rows {
		if !byName[row.Workload] {
			return fmt.Errorf("bench guard: workload %s has no robustness row", row.Workload)
		}
		if !row.PlansIdentical {
			return fmt.Errorf("bench guard: %s plans diverged incremental vs monolithic", row.Workload)
		}
		// Estimator activity is deterministic, so unlike wall time it
		// compares exactly: any extra nil-model work the fault machinery
		// introduced shows up here without measurement noise.
		if b, ok := baseRows[row.Workload]; ok {
			if row.MonolithicCalls != b.MonolithicCalls || row.IncrementalCalls != b.IncrementalCalls ||
				row.MonolithicFlowCards != b.MonolithicFlowCards || row.IncrementalFlowCards != b.IncrementalFlowCards {
				return fmt.Errorf("bench guard: %s nil-model estimator activity drifted from baseline: calls %d/%d vs %d/%d, flow cards %d/%d vs %d/%d",
					row.Workload, row.MonolithicCalls, row.IncrementalCalls, b.MonolithicCalls, b.IncrementalCalls,
					row.MonolithicFlowCards, row.IncrementalFlowCards, b.MonolithicFlowCards, b.IncrementalFlowCards)
			}
		}
	}
	var freshMS, baseMS float64
	for _, r := range fresh.Rows {
		freshMS += r.MonolithicMS + r.IncrementalMS
	}
	for _, r := range baseline.Rows {
		baseMS += r.MonolithicMS + r.IncrementalMS
	}
	if baseMS <= 0 {
		return fmt.Errorf("bench guard: baseline has no wall-time rows")
	}
	if freshMS > baseMS*GuardWallSlack {
		return fmt.Errorf("bench guard: nil-model optimizer wall time regressed %.1f%% (fresh %.0f ms vs baseline %.0f ms, tolerance %.0f%%)",
			(freshMS/baseMS-1)*100, freshMS, baseMS, (GuardWallSlack-1)*100)
	}
	return nil
}
