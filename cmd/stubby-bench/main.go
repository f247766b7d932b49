// Command stubby-bench regenerates the tables and figures of the paper's
// evaluation (Section 7) on the simulated substrate.
//
// Usage:
//
//	stubby-bench -all
//	stubby-bench -table 1
//	stubby-bench -fig 5 | 11 | 12 | 13 | 14
//	stubby-bench -fig 11 -size 0.5 -seed 7
//	stubby-bench -ablation ordering | search | units | profile | all
//	stubby-bench -whatif
//	stubby-bench -bench-optimizer -bench-out BENCH_optimizer.json
//	stubby-bench -fig 12 -cpuprofile cpu.prof -memprofile mem.prof
//	stubby-bench -list-optimizers
//	stubby-bench -gen -seed 42            # reproduce one generated case
//	stubby-bench -gen -seed 1 -gen-count 20 -gen-desc
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"github.com/stubby-mr/stubby/internal/baselines"
	"github.com/stubby-mr/stubby/internal/bench"
	"github.com/stubby-mr/stubby/internal/workloads"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure to regenerate (5, 11, 12, 13, 14)")
		table      = flag.Int("table", 0, "table to regenerate (1)")
		all        = flag.Bool("all", false, "regenerate everything")
		ablation   = flag.String("ablation", "", "ablation to run: ordering, search, units, profile, all")
		whatif     = flag.Bool("whatif", false, "report what-if call counts per workload, estimate cache off vs on")
		benchOpt   = flag.Bool("bench-optimizer", false, "benchmark the optimizer hot path: incremental vs monolithic what-if estimation")
		benchOut   = flag.String("bench-out", "BENCH_optimizer.json", "where -bench-optimizer writes its JSON report")
		benchGuard = flag.String("bench-guard", "", "CI smoke for -bench-optimizer: baseline JSON to guard against — robustness rows must be emitted and nil-model wall time must not regress >5%")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
		listOpts   = flag.Bool("list-optimizers", false, "list registered optimizers and exit")
		genMode    = flag.Bool("gen", false, "generate random workflow(s) from -seed and verify every registered planner against the semantic-equivalence oracle")
		genCount   = flag.Int("gen-count", 1, "how many consecutive seeds -gen checks")
		genDesc    = flag.Bool("gen-desc", false, "with -gen, print each generated case's full descriptor")
		size       = flag.Float64("size", 0.25, "workload size factor (records scale)")
		seed       = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *listOpts {
		fmt.Println("Optimizers:")
		for _, spec := range baselines.DefaultRegistry().Specs() {
			fmt.Printf("  %-11s %s\n", spec.Name, spec.Description)
		}
		return
	}
	h := bench.New(bench.Config{SizeFactor: *size, Seed: *seed})
	ran := false
	// Profile teardown must also run on the error paths below: os.Exit
	// skips defers, so fail() and the usage exit flush explicitly (a CPU
	// profile missing its trailing records is unreadable, and the heap
	// profile of a failing run is often exactly the one wanted).
	var profOnce sync.Once
	stopProfiles := func() {}
	exit := func(code int) {
		profOnce.Do(stopProfiles)
		os.Exit(code)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "stubby-bench:", err)
		exit(1)
	}
	if *cpuProfile != "" || *memProfile != "" {
		var cpuOut *os.File
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				fail(err)
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fail(err)
			}
			cpuOut = f
		}
		memPath := *memProfile
		stopProfiles = func() {
			if cpuOut != nil {
				pprof.StopCPUProfile()
				cpuOut.Close()
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "stubby-bench:", err)
					return
				}
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "stubby-bench:", err)
				}
				f.Close()
			}
		}
		defer profOnce.Do(stopProfiles)
	}
	if *all || *table == 1 {
		ran = true
		if err := printTable1(h); err != nil {
			fail(err)
		}
	}
	if *all || *fig == 5 {
		ran = true
		if err := printFig5(h); err != nil {
			fail(err)
		}
	}
	if *all || *fig == 11 {
		ran = true
		if err := printFigSpeedups(h, 11); err != nil {
			fail(err)
		}
	}
	if *all || *fig == 12 {
		ran = true
		if err := printFigSpeedups(h, 12); err != nil {
			fail(err)
		}
	}
	if *all || *fig == 13 {
		ran = true
		if err := printFig13(h); err != nil {
			fail(err)
		}
	}
	if *all || *fig == 14 {
		ran = true
		if err := printFig14(h); err != nil {
			fail(err)
		}
	}
	if *ablation != "" {
		ran = true
		if err := printAblations(h, *ablation); err != nil {
			fail(err)
		}
	}
	if *all || *whatif {
		ran = true
		if err := printWhatIf(h); err != nil {
			fail(err)
		}
	}
	if *all || *benchOpt {
		ran = true
		if err := runOptimizerBench(h, *benchOut, *benchGuard, *size, *seed); err != nil {
			fail(err)
		}
	}
	if *genMode {
		ran = true
		ok, err := runGenCheck(h, *seed, *genCount, *genDesc)
		if err != nil {
			fail(err)
		}
		if !ok {
			exit(1)
		}
	}
	if !ran {
		flag.Usage()
		exit(2)
	}
}

// ablationWorkloads is the subset used by the structural ablations: one
// vertically-dominated workflow (IR), the horizontally-dominated one (BR),
// and the largest mixed one (BA).
var ablationWorkloads = []string{"IR", "BR", "BA"}

func printAblations(h *bench.Harness, which string) error {
	if which == "ordering" || which == "all" {
		runs, err := h.AblationOrdering(ablationWorkloads)
		if err != nil {
			return err
		}
		fmt.Println("Ablation: phase ordering (Section 4 argues Vertical before Horizontal)")
		printAblationTable(runs)
	}
	if which == "search" || which == "all" {
		runs, err := h.AblationSearch(ablationWorkloads)
		if err != nil {
			return err
		}
		fmt.Println("Ablation: configuration search strategy (Section 4.2 chooses RRS)")
		printAblationTable(runs)
	}
	if which == "units" || which == "all" {
		runs, err := h.AblationUnitScope(ablationWorkloads)
		if err != nil {
			return err
		}
		fmt.Println("Ablation: dynamic optimization units vs one global unit (Section 4.1)")
		printAblationTable(runs)
	}
	if which == "profile" || which == "all" {
		rows, err := h.AblationProfileFraction("IR", []float64{0.05, 0.1, 0.25, 0.5, 1.0})
		if err != nil {
			return err
		}
		fmt.Println("Ablation: profile sampling fraction (IR), estimate accuracy and plan quality")
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{
				fmt.Sprintf("%.2f", r.Fraction),
				fmt.Sprintf("%.1f s", r.Estimated),
				fmt.Sprintf("%.1f s", r.Actual),
				fmt.Sprintf("%.1f%%", r.RelError*100),
				fmt.Sprintf("%.2fx", r.Speedup),
			})
		}
		fmt.Println(bench.FormatTable(
			[]string{"Fraction", "Estimated", "Actual", "Rel. error", "Speedup vs unopt"}, cells))
	}
	return nil
}

func printAblationTable(runs map[string][]bench.AblationRun) {
	var cells [][]string
	for _, abbr := range ablationWorkloads {
		for _, r := range runs[abbr] {
			cells = append(cells, []string{
				r.Workload, r.Variant,
				fmt.Sprintf("%d", r.Jobs),
				fmt.Sprintf("%.1f s", r.Makespan),
				fmt.Sprintf("%.2fx", r.Speedup),
				fmt.Sprintf("%.0f ms", r.OptimizeMS),
			})
		}
	}
	fmt.Println(bench.FormatTable(
		[]string{"Workflow", "Variant", "Jobs", "Makespan", "vs default", "Opt time"}, cells))
}

func printWhatIf(h *bench.Harness) error {
	rows, err := h.WhatIfCounts()
	if err != nil {
		return err
	}
	fmt.Println("What-if call counts per workload: estimate cache off vs on, then a cached repeat")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Workload,
			fmt.Sprintf("%d", r.UncachedCalls),
			fmt.Sprintf("%d", r.UncachedComputed),
			fmt.Sprintf("%d", r.CachedRequests),
			fmt.Sprintf("%d", r.CachedComputed),
			fmt.Sprintf("%.1f%%", r.HitRatePct),
			fmt.Sprintf("%d", r.RepeatComputed),
			fmt.Sprintf("%v", r.PlansIdentical),
		})
	}
	fmt.Println(bench.FormatTable(
		[]string{"Workflow", "Uncached req", "Uncached comp", "Cached req", "Cached comp",
			"Absorbed", "Repeat", "Identical plans"}, cells))
	return nil
}

// runOptimizerBench measures the incremental estimator against the
// monolithic path over the paper workloads plus the deep synthetic
// pipelines, prints the table, and writes the JSON perf trajectory.
func runOptimizerBench(h *bench.Harness, out, guard string, size float64, seed int64) error {
	abbrs := append(append([]string{}, workloads.Abbrs()...), bench.DeepPipelineAbbrs()...)
	rows, err := h.OptimizerBench(abbrs)
	if err != nil {
		return err
	}
	fmt.Println("Optimizer hot path: incremental vs monolithic what-if estimation (plans are byte-identical)")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Workload,
			fmt.Sprintf("%d", r.Jobs),
			fmt.Sprintf("%.0f ms", r.MonolithicMS),
			fmt.Sprintf("%.0f ms", r.IncrementalMS),
			fmt.Sprintf("%.2fx", r.WallSpeedup),
			fmt.Sprintf("%d", r.MonolithicFlowCards),
			fmt.Sprintf("%d", r.IncrementalFlowCards),
			fmt.Sprintf("%.2fx", r.FlowCardRatio),
			fmt.Sprintf("%v", r.PlansIdentical),
		})
	}
	fmt.Println(bench.FormatTable(
		[]string{"Workflow", "Jobs", "Monolithic", "Incremental", "Speedup",
			"Cards (mono)", "Cards (inc)", "Card ratio", "Identical"}, cells))
	report := bench.OptimizerBenchReport(rows, size, seed)
	fmt.Printf("multi-job (>=%d jobs): wall %.2fx, flow cards %.2fx\n",
		bench.MultiJobThreshold, report.MultiJob.WallSpeedup, report.MultiJob.FlowCardRatio)

	robRows, err := h.RobustnessBench(abbrs)
	if err != nil {
		return err
	}
	report.Robustness = robRows
	fmt.Printf("Plan robustness under the standard fault profile (%d perturbation samples, seed %d)\n",
		bench.RobustnessBenchSamples, bench.RobustnessBenchSeed)
	cells = nil
	for _, r := range robRows {
		cells = append(cells, []string{
			r.Workload,
			fmt.Sprintf("%d", r.Jobs),
			fmt.Sprintf("%.1f s", r.NominalSec),
			fmt.Sprintf("%.1f s", r.MeanSec),
			fmt.Sprintf("%.1f s", r.P95Sec),
			fmt.Sprintf("%.1f s", r.P99Sec),
			fmt.Sprintf("%d", r.FailedOut),
		})
	}
	fmt.Println(bench.FormatTable(
		[]string{"Workflow", "Jobs", "Nominal", "Mean", "p95", "p99", "Failed out"}, cells))

	reuseRows, err := h.ReuseBench(nil)
	if err != nil {
		return err
	}
	report.Reuse = reuseRows
	fmt.Printf("Cross-workflow sub-plan reuse on overlapping families (%d members per seed, member 0 publishes)\n",
		bench.ReuseBenchMembers)
	cells = nil
	for _, r := range reuseRows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.FamilySeed),
			fmt.Sprintf("%d", r.Member),
			fmt.Sprintf("%d", r.Jobs),
			fmt.Sprintf("%d", r.PlanJobs),
			fmt.Sprintf("%d", r.ReusedSubplans),
			fmt.Sprintf("%d/%d", r.CatalogHits, r.CatalogHits+r.CatalogMisses),
			fmt.Sprintf("%.2f", r.HitRatio),
			fmt.Sprintf("%.2fx", r.CostRatio),
		})
	}
	fmt.Println(bench.FormatTable(
		[]string{"Family", "Member", "Jobs", "Plan jobs", "Reused", "Hits", "Hit ratio", "Cost"}, cells))

	if out != "" {
		if err := bench.WriteOptimizerBenchJSON(out, report); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if guard != "" {
		baseline, err := bench.ReadOptimizerBenchJSON(guard)
		if err != nil {
			return err
		}
		if err := bench.GuardOptimizerBench(report, baseline); err != nil {
			return err
		}
		fmt.Printf("bench guard passed against %s: %d robustness rows, nil-model wall within %.0f%%\n",
			guard, len(report.Robustness), (bench.GuardWallSlack-1)*100)
	}
	return nil
}

// runGenCheck is the reproduction entry point for the generated-workflow
// equivalence suites: it regenerates the case(s) for the given seed(s),
// runs every registered planner, and prints the oracle's verdicts —
// including, on failure, the reproducing seed and the offending plan's
// DOT exactly as the test suites report them.
func runGenCheck(h *bench.Harness, seed int64, count int, withDesc bool) (bool, error) {
	if count < 1 {
		count = 1
	}
	rows, failures, descriptors, err := h.GenCheck(seed, count)
	if err != nil {
		return false, err
	}
	if withDesc {
		for _, d := range descriptors {
			fmt.Println(d)
		}
	}
	fmt.Printf("Generated-workflow equivalence: seeds %d..%d, every registered planner\n", seed, seed+int64(count)-1)
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Seed),
			r.Planner,
			fmt.Sprintf("%d", r.Jobs),
			fmt.Sprintf("%d", r.PlanJobs),
			fmt.Sprintf("%.1f s", r.EstCost),
			fmt.Sprintf("%v", r.Equivalent),
			fmt.Sprintf("%.0f ms", r.OptimizeMS),
		})
	}
	fmt.Println(bench.FormatTable(
		[]string{"Seed", "Planner", "Jobs in", "Jobs out", "Est. cost", "Equivalent", "Opt time"}, cells))
	for _, f := range failures {
		fmt.Println("FAILURE:", f)
	}
	if len(failures) > 0 {
		fmt.Printf("%d failures\n", len(failures))
		return false, nil
	}
	fmt.Println("all plans semantically equivalent to their unoptimized workflows")
	return true, nil
}

func printTable1(h *bench.Harness) error {
	rows, err := h.Table1()
	if err != nil {
		return err
	}
	fmt.Println("Table 1: MapReduce workflows and corresponding data sizes")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Abbr, r.Title,
			fmt.Sprintf("%.0f GB", r.PaperGB),
			fmt.Sprintf("%.0f GB", r.VirtualGB),
			fmt.Sprintf("%d", r.Records),
			fmt.Sprintf("%d", r.Jobs),
		})
	}
	fmt.Println(bench.FormatTable(
		[]string{"Abbr", "Workflow", "Paper size", "Simulated size", "Records", "Jobs"}, cells))
	return nil
}

func printFig5(h *bench.Harness) error {
	rows, err := h.Figure5()
	if err != nil {
		return err
	}
	fmt.Println("Figure 5: performance degradation and improvement caused by packing")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Transformation, r.Case,
			fmt.Sprintf("%.1f s", r.Unpacked),
			fmt.Sprintf("%.1f s", r.Packed),
			fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	fmt.Println(bench.FormatTable(
		[]string{"Transformation", "Case", "No packing", "With packing", "Speedup"}, cells))
	return nil
}

func printFigSpeedups(h *bench.Harness, fig int) error {
	var runs map[string][]bench.PlannerRun
	var err error
	var title string
	if fig == 11 {
		title = "Figure 11: speedup over Baseline by Stubby, Vertical, and Horizontal"
		runs, err = h.Figure11()
	} else {
		title = "Figure 12: speedup over Baseline by Stubby, Starfish, YSmart, and MRShare"
		runs, err = h.Figure12()
	}
	if err != nil {
		return err
	}
	fmt.Println(title)
	header := []string{"Workflow"}
	if len(runs[workloads.Abbrs()[0]]) > 0 {
		for _, r := range runs[workloads.Abbrs()[0]] {
			header = append(header, r.Planner)
		}
	}
	var cells [][]string
	for _, abbr := range workloads.Abbrs() {
		row := []string{abbr}
		for _, r := range runs[abbr] {
			row = append(row, fmt.Sprintf("%.2fx (%dj)", r.Speedup, r.Jobs))
		}
		cells = append(cells, row)
	}
	fmt.Println(bench.FormatTable(header, cells))
	return nil
}

func printFig13(h *bench.Harness) error {
	rows, err := h.Figure13()
	if err != nil {
		return err
	}
	fmt.Println("Figure 13: optimization overhead")
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Workload,
			fmt.Sprintf("%.0f ms", r.OptimizeMS),
			fmt.Sprintf("%.0f s", r.WorkflowSec),
			fmt.Sprintf("%.3f%%", r.OverheadPct),
		})
	}
	fmt.Println(bench.FormatTable(
		[]string{"Workflow", "Optimization time", "Workflow runtime (sim)", "Overhead"}, cells))
	return nil
}

func printFig14(h *bench.Harness) error {
	points, err := h.Figure14()
	if err != nil {
		return err
	}
	fmt.Println("Figure 14: actual vs estimated normalized cost, first unit of IR")
	var cells [][]string
	for _, p := range points {
		cells = append(cells, []string{
			fmt.Sprintf("%.3f", p.EstimatedNorm),
			fmt.Sprintf("%.3f", p.ActualNorm),
			p.Description,
		})
	}
	fmt.Println(bench.FormatTable([]string{"Estimated", "Actual", "Subplan"}, cells))
	return nil
}
