// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 7). Each benchmark drives the experiment harness and prints the
// same rows/series the paper reports; absolute numbers come from the
// simulated substrate, so the shapes — who wins, by roughly what factor,
// where the crossovers fall — are the reproduction target.
//
// Run with:
//
//	go test -bench=. -benchmem
package stubby_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/bench"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// benchConfig keeps benchmark runs quick while preserving paper-scale
// virtual dataset sizes.
var benchConfig = bench.Config{SizeFactor: 0.2, Seed: 1}

var printOnce sync.Map

func printHeader(b *testing.B, key, title string) bool {
	_, loaded := printOnce.LoadOrStore(key, true)
	if !loaded {
		fmt.Printf("\n=== %s ===\n", title)
	}
	return !loaded
}

func BenchmarkTable1Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		rows, err := h.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if printHeader(b, "t1", "Table 1: workflows and data sizes") {
			for _, r := range rows {
				fmt.Printf("%-3s %-28s paper=%4.0fGB simulated=%4.0fGB records=%7d jobs=%d\n",
					r.Abbr, r.Title, r.PaperGB, r.VirtualGB, r.Records, r.Jobs)
			}
		}
		if len(rows) != 8 {
			b.Fatalf("expected 8 workloads, got %d", len(rows))
		}
	}
}

func BenchmarkFigure5Packing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		rows, err := h.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if printHeader(b, "f5", "Figure 5: packing improvement and degradation") {
			for _, r := range rows {
				fmt.Printf("%-15s %-12s no-packing=%8.1fs packed=%8.1fs speedup=%.2fx\n",
					r.Transformation, r.Case, r.Unpacked, r.Packed, r.Speedup)
			}
		}
		for _, r := range rows {
			switch r.Case {
			case "improvement":
				if r.Speedup <= 1 {
					b.Errorf("%s improvement case lost: %.2fx", r.Transformation, r.Speedup)
				}
			case "degradation":
				if r.Speedup >= 1 {
					b.Errorf("%s degradation case won: %.2fx", r.Transformation, r.Speedup)
				}
			}
		}
	}
}

func reportSpeedups(b *testing.B, key, title string, runs map[string][]bench.PlannerRun) {
	if printHeader(b, key, title) {
		for _, abbr := range workloads.Abbrs() {
			for _, r := range runs[abbr] {
				fmt.Printf("%-3s %-11s %d jobs  %9.1fs  %5.2fx vs Baseline\n",
					abbr, r.Planner, r.Jobs, r.Makespan, r.Speedup)
			}
		}
	}
	// Aggregate metric: Stubby's geometric-mean speedup across workflows.
	prod, n := 1.0, 0
	for _, abbr := range workloads.Abbrs() {
		for _, r := range runs[abbr] {
			if r.Planner == "Stubby" {
				prod *= r.Speedup
				n++
			}
		}
	}
	if n > 0 {
		b.ReportMetric(math.Pow(prod, 1/float64(n)), "stubby-geomean-speedup")
	}
}

func BenchmarkFigure11TransformationGroups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		runs, err := h.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedups(b, "f11", "Figure 11: Stubby vs Vertical vs Horizontal (speedup over Baseline)", runs)
	}
}

func BenchmarkFigure12StateOfTheArt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		runs, err := h.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		reportSpeedups(b, "f12", "Figure 12: Stubby vs Starfish vs YSmart vs MRShare (speedup over Baseline)", runs)
	}
}

func BenchmarkFigure13OptimizationOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		rows, err := h.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		if printHeader(b, "f13", "Figure 13: optimization overhead") {
			for _, r := range rows {
				fmt.Printf("%-3s optimize=%7.0fms workflow=%9.0fs overhead=%.4f%%\n",
					r.Workload, r.OptimizeMS, r.WorkflowSec, r.OverheadPct)
			}
		}
		var worst float64
		for _, r := range rows {
			if r.OverheadPct > worst {
				worst = r.OverheadPct
			}
		}
		b.ReportMetric(worst, "worst-overhead-%")
	}
}

func BenchmarkFigure14EstimateAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		points, err := h.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		if printHeader(b, "f14", "Figure 14: actual vs estimated normalized cost (IR, first unit)") {
			for _, p := range points {
				fmt.Printf("est=%.3f actual=%.3f  %s\n", p.EstimatedNorm, p.ActualNorm, p.Description)
			}
		}
		if len(points) < 3 {
			b.Fatalf("too few subplans: %d", len(points))
		}
		// The paper's takeaway: estimates identify the best and worst
		// subplans. Check rank agreement at the extremes.
		bestEst, worstEst, bestAct, worstAct := 0, 0, 0, 0
		for i, p := range points {
			if p.EstimatedNorm < points[bestEst].EstimatedNorm {
				bestEst = i
			}
			if p.EstimatedNorm > points[worstEst].EstimatedNorm {
				worstEst = i
			}
			if p.ActualNorm < points[bestAct].ActualNorm {
				bestAct = i
			}
			if p.ActualNorm > points[worstAct].ActualNorm {
				worstAct = i
			}
		}
		// Best-estimated subplan should be within 25% of the actual best.
		if points[bestEst].ActualNorm > points[bestAct].ActualNorm*1.25 {
			b.Errorf("estimated-best subplan is far from actual best: %.3f vs %.3f",
				points[bestEst].ActualNorm, points[bestAct].ActualNorm)
		}
	}
}

// --- ablation benchmarks -----------------------------------------------------
//
// These regenerate the ablation tables for the optimizer's design
// choices: phase ordering (Section 4), configuration-search strategy
// (Section 4.2), optimization-unit scope (Section 4.1), and profile
// sampling fraction (Sections 2.2/5). They use a reduced workload subset
// so a full -bench=. run stays tractable.

var ablationWorkloads = []string{"IR", "BR", "BA"}

func reportAblation(b *testing.B, key, title string, runs map[string][]bench.AblationRun) {
	if printHeader(b, key, title) {
		for _, abbr := range ablationWorkloads {
			for _, r := range runs[abbr] {
				fmt.Printf("%-3s %-13s %d jobs  %9.1fs  %5.2fx vs default  opt=%6.0fms\n",
					abbr, r.Variant, r.Jobs, r.Makespan, r.Speedup, r.OptimizeMS)
			}
		}
	}
}

func BenchmarkAblationPhaseOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		runs, err := h.AblationOrdering(ablationWorkloads)
		if err != nil {
			b.Fatal(err)
		}
		reportAblation(b, "ab-ord", "Ablation: Vertical-then-Horizontal vs reversed", runs)
		// The paper's rationale (Section 4): on vertically-dominated
		// workflows, packing horizontally first blocks vertical packing.
		for _, r := range runs["IR"] {
			if r.Variant == "H-then-V" && r.Speedup > 1.02 {
				b.Errorf("reversed ordering beat the paper's ordering on IR: %.2fx", r.Speedup)
			}
		}
	}
}

func BenchmarkAblationConfigSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		runs, err := h.AblationSearch(ablationWorkloads)
		if err != nil {
			b.Fatal(err)
		}
		reportAblation(b, "ab-sch", "Ablation: RRS vs uniform random vs no configuration search", runs)
		// Dropping configuration search entirely must not win meaningfully
		// anywhere. RRS minimizes the What-if estimate, so the measured
		// makespan can wobble a few percent either way on estimator error;
		// only flag wins beyond that noise band.
		for _, abbr := range ablationWorkloads {
			for _, r := range runs[abbr] {
				if r.Variant == "NoSearch" && r.Speedup > 1.15 {
					b.Errorf("%s: no-search beat RRS well beyond noise: %.2fx", abbr, r.Speedup)
				}
			}
		}
	}
}

func BenchmarkAblationUnitScope(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		runs, err := h.AblationUnitScope(ablationWorkloads)
		if err != nil {
			b.Fatal(err)
		}
		reportAblation(b, "ab-unit", "Ablation: dynamic optimization units vs one global unit", runs)
	}
}

func BenchmarkAblationProfileFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		rows, err := h.AblationProfileFraction("IR", []float64{0.05, 0.25, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		if printHeader(b, "ab-prof", "Ablation: profile sampling fraction (IR)") {
			for _, r := range rows {
				fmt.Printf("fraction=%.2f est=%8.1fs actual=%8.1fs err=%5.1f%% speedup=%.2fx\n",
					r.Fraction, r.Estimated, r.Actual, r.RelError*100, r.Speedup)
			}
		}
		// Plan quality should not collapse at small fractions: the chosen
		// plans must still beat the unoptimized workflow.
		for _, r := range rows {
			if r.Speedup < 1 {
				b.Errorf("fraction %.2f chose a plan slower than unoptimized: %.2fx", r.Fraction, r.Speedup)
			}
		}
	}
}

// --- estimate-cache benchmarks -----------------------------------------------
//
// These record What-if call counts per workload (so BENCH_*.json captures
// the cache's effect) and time the OptimizeAll fan-out with the cache off
// and on. "computed" counts full estimator runs; the difference between the
// off and on pairs is the work the fingerprint-keyed cache absorbed.

func BenchmarkWhatIfCallCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		rows, err := h.WhatIfCounts()
		if err != nil {
			b.Fatal(err)
		}
		if printHeader(b, "whatif", "What-if call counts per workload (cache off vs on vs repeat)") {
			for _, r := range rows {
				fmt.Printf("%-3s uncached=%7d/%5d cached: requests=%7d computed=%7d (%.1f%% absorbed) repeat=%d identical=%v\n",
					r.Workload, r.UncachedCalls, r.UncachedComputed, r.CachedRequests, r.CachedComputed,
					r.HitRatePct, r.RepeatComputed, r.PlansIdentical)
			}
		}
		var uncached, computed, repeat float64
		for _, r := range rows {
			if !r.PlansIdentical {
				b.Fatalf("%s: cache changed the chosen plan", r.Workload)
			}
			uncached += float64(r.UncachedComputed)
			computed += float64(r.CachedComputed)
			repeat += float64(r.RepeatComputed)
		}
		b.ReportMetric(uncached, "whatif-uncached")
		b.ReportMetric(computed, "whatif-cached-computed")
		b.ReportMetric(repeat, "whatif-repeat-computed")
		if uncached > 0 {
			b.ReportMetric(100*(uncached-computed)/uncached, "first-pass-absorbed-%")
		}
	}
}

// optimizeWorkloadsBench optimizes every paper workload through the public
// Session API — one session per workload, bound to that workload's
// paper-scaled cluster, all sharing the given estimate cache (the
// cross-session sharing WithEstimateCache advertises) — and returns total
// What-if computations. Workload construction and profiling run with the
// timer stopped, so ns/op measures only the optimizations.
func optimizeWorkloadsBench(b *testing.B, cache *stubby.EstimateCache) float64 {
	b.Helper()
	b.StopTimer()
	type prepared struct {
		sess *stubby.Session
		flow *stubby.Workflow
	}
	var preps []prepared
	for _, abbr := range workloads.Abbrs() {
		wl, err := stubby.BuildWorkload(abbr, stubby.WorkloadOptions{SizeFactor: benchConfig.SizeFactor, Seed: benchConfig.Seed})
		if err != nil {
			b.Fatal(err)
		}
		opts := []stubby.SessionOption{
			stubby.WithCluster(wl.Cluster),
			stubby.WithSeed(benchConfig.Seed),
			stubby.WithParallelism(4),
		}
		if cache != nil {
			opts = append(opts, stubby.WithEstimateCache(cache))
		}
		sess, err := stubby.NewSession(opts...)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Profile(context.Background(), wl.Workflow, wl.DFS); err != nil {
			b.Fatal(err)
		}
		preps = append(preps, prepared{sess: sess, flow: wl.Workflow})
	}
	b.StartTimer()
	var computed float64
	for _, p := range preps {
		res, err := p.sess.Optimize(context.Background(), p.flow)
		if err != nil {
			b.Fatal(err)
		}
		computed += float64(res.WhatIfComputed)
	}
	return computed
}

// BenchmarkOptimizeIncrementalVsMonolithic is the incremental estimator's
// regression gate: the full Stubby search runs over the paper workloads and
// the deep synthetic pipelines with incremental estimation forced off and
// on, verifying byte-identical plans and reporting the hot-path savings.
// Flow-card counts are deterministic, so the multi-job reduction factor is
// asserted outright; wall-clock speedup is reported as a metric (and
// recorded durably by `stubby-bench -bench-optimizer` in
// BENCH_optimizer.json) rather than asserted, since CI machines vary.
func BenchmarkOptimizeIncrementalVsMonolithic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := bench.New(benchConfig)
		abbrs := append(append([]string{}, workloads.Abbrs()...), bench.DeepPipelineAbbrs()...)
		rows, err := h.OptimizerBench(abbrs)
		if err != nil {
			b.Fatal(err)
		}
		rep := bench.OptimizerBenchReport(rows, benchConfig.SizeFactor, benchConfig.Seed)
		if printHeader(b, "optinc", "Optimizer hot path: incremental vs monolithic estimation") {
			for _, r := range rows {
				fmt.Printf("%-4s %2dj mono=%7.0fms inc=%7.0fms wall=%.2fx cards %8d -> %8d (%.2fx) identical=%v\n",
					r.Workload, r.Jobs, r.MonolithicMS, r.IncrementalMS, r.WallSpeedup,
					r.MonolithicFlowCards, r.IncrementalFlowCards, r.FlowCardRatio, r.PlansIdentical)
			}
		}
		if !rep.All.PlansIdentical {
			b.Fatal("incremental estimation changed a chosen plan or cost")
		}
		if rep.MultiJob.FlowCardRatio < 2 {
			b.Errorf("multi-job flow-card reduction regressed: %.2fx < 2x", rep.MultiJob.FlowCardRatio)
		}
		b.ReportMetric(rep.MultiJob.FlowCardRatio, "multijob-flowcard-ratio")
		b.ReportMetric(rep.MultiJob.WallSpeedup, "multijob-wall-speedup")
		b.ReportMetric(rep.All.WallSpeedup, "all-wall-speedup")
	}
}

func BenchmarkOptimizeWorkloadsCacheOff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		computed := optimizeWorkloadsBench(b, nil)
		b.ReportMetric(computed, "whatif-computed")
	}
}

func BenchmarkOptimizeWorkloadsCacheOn(b *testing.B) {
	// One cache across iterations: iteration 2+ replays entirely from it,
	// which is exactly the repeated-workflow serving scenario.
	cache := stubby.NewEstimateCache(1 << 18)
	for i := 0; i < b.N; i++ {
		computed := optimizeWorkloadsBench(b, cache)
		b.ReportMetric(computed, "whatif-computed")
		b.ReportMetric(float64(cache.Stats().Hits), "cache-hits-cum")
	}
}
