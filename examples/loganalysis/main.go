// Loganalysis: the Log Analysis workflow (Pavlo et al.'s complex join
// task, Section 7.1), highlighting two information-driven optimizations:
// partition pruning against the uservisits date filter (the base dataset is
// range partitioned on date, and the join's filter annotation lets the
// runtime skip partitions outside the requested quarter), and inter-job
// vertical packing of the map-only re-key job into the per-user aggregate.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/stubby-mr/stubby"
)

func main() {
	wl, err := stubby.BuildWorkload("LA", stubby.WorkloadOptions{SizeFactor: 0.25, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (%s): %.0f GB simulated\n\n", wl.Abbr, wl.Title, wl.PaperGB)
	ctx := context.Background()
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Profile(ctx, wl.Workflow, wl.DFS); err != nil {
		log.Fatal(err)
	}

	fmt.Println("original plan:")
	fmt.Print(wl.Workflow.Summary())

	res, err := sess.Optimize(ctx, wl.Workflow)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimized plan:")
	fmt.Print(res.Plan.Summary())

	// Reference point: the production Baseline (Pig rules + rule-of-thumb
	// configuration), as in the paper's evaluation.
	baseline, err := sess.Planner("baseline")
	if err != nil {
		log.Fatal(err)
	}
	basePlan, err := baseline.Plan(wl.Workflow)
	if err != nil {
		log.Fatal(err)
	}
	before, err := sess.Run(ctx, wl.DFS.Clone(), basePlan)
	if err != nil {
		log.Fatal(err)
	}
	after, err := sess.Run(ctx, wl.DFS.Clone(), res.Plan)
	if err != nil {
		log.Fatal(err)
	}

	// Partition pruning at work: the date filter on uservisits lets the
	// join skip partitions outside the requested date range.
	var prunedBefore, prunedAfter int
	for _, j := range before.Jobs {
		prunedBefore += j.PrunedPartitions
	}
	for _, j := range after.Jobs {
		prunedAfter += j.PrunedPartitions
	}
	fmt.Printf("\npartitions pruned: %d (baseline) / %d (optimized)\n", prunedBefore, prunedAfter)
	fmt.Printf("simulated runtime: %.1fs (baseline) -> %.1fs (%.2fx speedup)\n",
		before.Makespan, after.Makespan, before.Makespan/after.Makespan)

	// The top-revenue user survives optimization byte-for-byte.
	dfs := wl.DFS.Clone()
	if _, err := sess.Run(ctx, dfs, res.Plan); err != nil {
		log.Fatal(err)
	}
	if stored, ok := dfs.Get("topuser"); ok {
		for _, p := range stored.AllPairs() {
			fmt.Printf("top user: id=%v, total revenue=%.2f\n", p.Value[1], p.Value[0])
		}
	}
}
