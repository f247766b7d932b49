// Command stubby optimizes and runs the paper's evaluation workflows on
// the simulated MapReduce substrate, showing plans before and after
// optimization.
//
// Usage:
//
//	stubby -list
//	stubby -list-optimizers
//	stubby -workload BR
//	stubby -workload BR -optimizer stubby -run
//	stubby -workload LA -optimizer ysmart -dot
//	stubby -workload IR -compare
//	stubby -workload BR -reuse-catalog ./catalog -run
//	stubby -workload BR -export br.plan.json
//	stubby -import br.plan.json -optimizer stubby
//	stubby -workload BR -remote http://localhost:8080 -v
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/stubby-mr/stubby"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available workloads")
		listOpts   = flag.Bool("list-optimizers", false, "list registered optimizers")
		workload   = flag.String("workload", "", "workload abbreviation (IR, SN, LA, WG, BA, BR, PJ, US)")
		planner    = flag.String("optimizer", "stubby", "optimizer name (see -list-optimizers) or none")
		run        = flag.Bool("run", false, "execute the plans and report simulated runtimes")
		compare    = flag.Bool("compare", false, "run every optimizer on the workload")
		dot        = flag.Bool("dot", false, "print the optimized plan in Graphviz DOT format")
		verbose    = flag.Bool("v", false, "report optimizer progress while searching")
		size       = flag.Float64("size", 0.25, "workload size factor")
		seed       = flag.Int64("seed", 1, "random seed")
		fraction   = flag.Float64("profile", 0.5, "profiling sample fraction")
		useCache   = flag.Bool("cache", true, "memoize what-if estimates under workflow fingerprints")
		reuseDir   = flag.String("reuse-catalog", "", "sub-plan reuse catalog directory: -run publishes materialized intermediates, optimizations reuse catalog-matched sub-DAG results")
		robSamples = flag.Int("robustness", 0, "Monte-Carlo samples for fault-aware robustness scoring (0 disables)")
		faultName  = flag.String("fault-profile", "standard", "fault profile for -robustness (standard, failures, stragglers)")
		faultSeed  = flag.Int64("fault-seed", 42, "base perturbation seed for -robustness")
		export     = flag.String("export", "", "write the annotated plan to this JSON file and exit")
		imprt      = flag.String("import", "", "read an annotated plan from this JSON file (structure-only) instead of building a workload")
		remote     = flag.String("remote", "", "optimize through the stubbyd server at this base URL (e.g. http://localhost:8080) instead of in-process")
	)
	flag.Parse()
	ctx := context.Background()
	// Registry lookups are case-insensitive; normalize so the "none"
	// sentinel is too.
	plannerName := strings.ToLower(*planner)

	if *listOpts {
		fmt.Println("Optimizers:")
		for _, spec := range stubby.PlannerSpecs() {
			fmt.Printf("  %-11s %s\n", spec.Name, spec.Description)
		}
		return
	}
	if *list {
		fmt.Println("Workloads (Table 1):")
		for _, abbr := range stubby.Workloads() {
			fmt.Printf("  %s\n", abbr)
		}
		return
	}

	if *imprt != "" {
		importAndOptimize(ctx, *imprt, plannerName, *seed, *dot)
		return
	}

	if *workload == "" {
		flag.Usage()
		os.Exit(2)
	}
	wl, err := stubby.BuildWorkload(*workload, stubby.WorkloadOptions{SizeFactor: *size, Seed: *seed})
	if err != nil {
		fail(err)
	}
	opts := []stubby.SessionOption{
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(*seed),
		stubby.WithProfileFraction(*fraction),
	}
	var cache *stubby.EstimateCache
	if *useCache {
		cache = stubby.NewEstimateCache(0)
		opts = append(opts, stubby.WithEstimateCache(cache))
	}
	var reuseCat *stubby.ReuseCatalog
	if *reuseDir != "" {
		reuseCat, err = stubby.NewReuseCatalog(*reuseDir)
		if err != nil {
			fail(err)
		}
		defer func() {
			st := reuseCat.Stats()
			fmt.Printf("-- reuse catalog: %d entries, %d hits / %d misses\n", st.Entries, st.Hits, st.Misses)
			if err := reuseCat.Close(); err != nil {
				fail(err)
			}
		}()
		opts = append(opts, stubby.WithReuseCatalog(reuseCat))
	}
	if *robSamples > 0 {
		model, err := stubby.FaultProfile(*faultName, *faultSeed)
		if err != nil {
			fail(err)
		}
		opts = append(opts, stubby.WithRobustness(model, *robSamples))
	}
	if plannerName != "none" {
		// Validated at construction; Profile/Run ignore the planner name.
		opts = append(opts, stubby.WithPlanner(plannerName))
	}
	sess, err := stubby.NewSession(opts...)
	if err != nil {
		fail(err)
	}
	if err := sess.Profile(ctx, wl.Workflow, wl.DFS); err != nil {
		fail(err)
	}
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			fail(err)
		}
		if err := stubby.ExportPlan(f, wl.Workflow); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote annotated %s plan to %s\n", wl.Abbr, *export)
		return
	}
	fmt.Printf("== %s: %s (%.0f GB simulated)\n", wl.Abbr, wl.Title, wl.PaperGB)
	fmt.Println("-- original plan")
	fmt.Print(wl.Workflow.Summary())

	if *remote != "" {
		// Profile locally (profiling needs the data and the functions),
		// then route the optimization through the remote service. The
		// returned plan is structure-only, so -run is unavailable.
		if *run || *compare {
			fail(fmt.Errorf("-run and -compare need executable plans and are unavailable with -remote"))
		}
		optimizeRemote(ctx, *remote, wl, plannerName, *seed, *verbose, *dot)
		return
	}

	if *compare {
		comparePlanners(ctx, sess, opts, wl, *verbose)
		return
	}

	plan := wl.Workflow
	if plannerName != "none" {
		// Optimize through the session (not Planner.Plan directly) so -v
		// sees per-unit progress for Stubby variants.
		p, err := sess.Planner(plannerName)
		if err != nil {
			fail(err)
		}
		res, err := optimize(ctx, sess, wl.Workflow, *verbose)
		if err != nil {
			fail(err)
		}
		plan = res.Plan
		fmt.Printf("-- %s plan (optimized in %v)\n", p.Name(), res.Duration.Round(time.Millisecond))
		fmt.Print(plan.Summary())
		printWhatIf(res, cache)
	}
	if *dot {
		fmt.Println(plan.DOT())
	}
	if *run {
		before, err := sess.Run(ctx, wl.DFS.Clone(), wl.Workflow)
		if err != nil {
			fail(err)
		}
		after, err := sess.Run(ctx, wl.DFS.Clone(), plan)
		if err != nil {
			fail(err)
		}
		fmt.Printf("-- simulated runtimes: original %.1fs, optimized %.1fs (%.2fx speedup)\n",
			before.Makespan, after.Makespan, before.Makespan/after.Makespan)
	}
}

// optimize runs one optimization on sess. Under -v it is submitted, so the
// job's event stream can be printed as it arrives.
func optimize(ctx context.Context, sess *stubby.Session, w *stubby.Workflow, verbose bool) (*stubby.Result, error) {
	if !verbose {
		return sess.Optimize(ctx, w)
	}
	job, err := sess.Submit(ctx, stubby.OptimizeRequest{Workflow: w})
	if err != nil {
		return nil, err
	}
	for ev := range job.Events(ctx) {
		printEvent(ev)
	}
	return job.Wait(ctx)
}

// printEvent streams one progress event of a local or remote job to stderr
// (-v).
func printEvent(ev stubby.Event) {
	switch e := ev.(type) {
	case stubby.StateChangedEvent:
		fmt.Fprintf(os.Stderr, "[%s] state %s\n", e.Workflow, e.State)
	case stubby.UnitStartedEvent:
		fmt.Fprintf(os.Stderr, "[%s] unit %d (%s): %v\n", e.Workflow, e.Unit, e.Phase, e.Jobs)
	case stubby.BestCostImprovedEvent:
		fmt.Fprintf(os.Stderr, "[%s] unit %d: best <- %s (%.1f)\n", e.Workflow, e.Unit, e.Desc, e.Cost)
	}
}

// printWhatIf reports what-if activity for one optimization and, when a
// cache is attached, its cumulative effectiveness.
func printWhatIf(res *stubby.Result, cache *stubby.EstimateCache) {
	if res.WhatIfCalls == 0 {
		return
	}
	fmt.Printf("-- what-if calls: %d requested, %d full computations, %d flow cards\n",
		res.WhatIfCalls, res.WhatIfComputed, res.FlowCards)
	if yield := res.Yield(); len(yield) > 0 { // a remote or rule-based result has no search trace
		fmt.Print("-- transformations:")
		for _, y := range yield {
			fmt.Printf(" %s %d/%d/%d,", y.Transformation, y.Proposed, y.Kept, y.Chosen)
		}
		fmt.Println(" as proposed/kept/chosen")
	}
	if res.ReusedSubplans > 0 {
		fmt.Printf("-- sub-plan reuse: replaced %d sub-DAG(s) with stored-result scans\n", res.ReusedSubplans)
	}
	if r := res.Robustness; r != nil {
		fmt.Printf("-- robustness (%d perturbation samples): mean %.1fs, p95 %.1fs, p99 %.1fs\n",
			r.Samples, r.Mean, r.P95, r.P99)
		if r.FailedOut > 0 {
			fmt.Printf("-- robustness: %d samples exhausted the retry bound\n", r.FailedOut)
		}
	}
	if cache != nil {
		st := cache.Stats()
		fmt.Printf("-- estimate cache: %d/%d hits (%.1f%%), %d entries, %d evictions\n",
			st.Hits, st.Lookups(), 100*st.HitRate(), st.Entries, st.Evictions)
	}
}

func comparePlanners(ctx context.Context, sess *stubby.Session, opts []stubby.SessionOption, wl *stubby.Workload, verbose bool) {
	// Baseline goes first: it anchors the speedup column.
	names := []string{"baseline"}
	for _, n := range sess.Planners() {
		if n != "baseline" {
			names = append(names, n)
		}
	}
	var baseTime float64
	for _, name := range names {
		// One session per planner, optimized through the session so -v
		// progress and ctx cancellation apply to every search.
		psess, err := stubby.NewSession(append(append([]stubby.SessionOption{}, opts...), stubby.WithPlanner(name))...)
		if err != nil {
			fail(err)
		}
		p, err := psess.Planner(name)
		if err != nil {
			fail(err)
		}
		res, err := optimize(ctx, psess, wl.Workflow, verbose)
		if err != nil {
			fail(err)
		}
		rep, err := sess.Run(ctx, wl.DFS.Clone(), res.Plan)
		if err != nil {
			fail(err)
		}
		if name == "baseline" {
			baseTime = rep.Makespan
		}
		fmt.Printf("  %-11s %d jobs  %8.1fs simulated  %6.2fx vs baseline  (optimized in %v)\n",
			p.Name(), len(res.Plan.Jobs), rep.Makespan, baseTime/rep.Makespan, res.Duration.Round(time.Millisecond))
	}
	// All per-planner sessions were built from opts, so they share any
	// estimate cache configured there; report its aggregate effect.
	if st, ok := sess.EstimateCacheStats(); ok {
		fmt.Printf("  estimate cache: %d/%d hits (%.1f%%), %d entries, %d evictions\n",
			st.Hits, st.Lookups(), 100*st.HitRate(), st.Entries, st.Evictions)
	}
}

// optimizeRemote submits the profiled workload to a stubbyd server and
// streams progress: the wire-format counterpart of the in-process path.
// The request carries the workload's cluster so the remote What-if engine
// costs against the same machine model the local session would.
func optimizeRemote(ctx context.Context, base string, wl *stubby.Workload, planner string, seed int64, verbose, dot bool) {
	if planner == "none" {
		fail(fmt.Errorf("-remote submits an optimization; pick an optimizer (see -list-optimizers)"))
	}
	client, err := stubby.NewClient(base)
	if err != nil {
		fail(err)
	}
	req := stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: planner, Seed: seed, Cluster: wl.Cluster}
	job, err := client.Submit(ctx, req)
	if err != nil {
		fail(err)
	}
	fmt.Printf("-- submitted to %s as %s\n", base, job.ID())
	if verbose {
		events, err := job.Events(ctx)
		if err != nil {
			fail(err)
		}
		for ev := range events {
			printEvent(ev)
		}
	}
	res, err := job.Wait(ctx)
	if err != nil {
		fail(err)
	}
	fmt.Printf("-- remote plan (estimated makespan %.1f, optimized in %v)\n",
		res.EstimatedCost, res.Duration.Round(time.Millisecond))
	fmt.Print(res.Plan.Summary())
	printWhatIf(res, nil)
	if dot {
		fmt.Println(res.Plan.DOT())
	}
}

// importAndOptimize loads a structure-only plan (annotations but no function
// bodies — the paper's Figure 2 deployment, where Stubby receives plans from
// remote workflow generators) and optimizes it. Planners never invoke stage
// functions, so any registered optimizer applies; imported plans cannot be
// executed, so -run is unavailable in this mode.
func importAndOptimize(ctx context.Context, path, planner string, seed int64, dot bool) {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	plan, err := stubby.ImportPlanStructure(f)
	if err != nil {
		fail(err)
	}
	fmt.Printf("== imported plan %s\n-- original plan\n", plan.Name)
	fmt.Print(plan.Summary())
	if planner == "none" {
		if dot {
			fmt.Println(plan.DOT())
		}
		return
	}
	sess, err := stubby.NewSession(stubby.WithSeed(seed), stubby.WithPlanner(planner))
	if err != nil {
		fail(err)
	}
	res, err := sess.Optimize(ctx, plan)
	if err != nil {
		fail(err)
	}
	fmt.Printf("-- optimized plan (estimated makespan %.1f)\n", res.EstimatedCost)
	fmt.Print(res.Plan.Summary())
	if dot {
		fmt.Println(res.Plan.DOT())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "stubby:", err)
	os.Exit(1)
}
