// Reportgen: the paper's running example (Figure 1 / Section 7.1's
// Business Report Generation workflow). A seven-job report-generation
// workflow — scan, two filtered group-aggregates, two rollups, two
// distinct-count jobs — is collapsed by Stubby's vertical and horizontal
// packing into a far shorter plan, demonstrating the paper's headline
// claim that the seven-job workflow becomes an equivalent two-to-three-job
// workflow with a large speedup.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/stubby-mr/stubby"
)

func main() {
	wl, err := stubby.BuildWorkload("BR", stubby.WorkloadOptions{SizeFactor: 0.25, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (%s): %.0f GB of simulated data\n", wl.Abbr, wl.Title, wl.PaperGB)

	ctx := context.Background()
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Profile(ctx, wl.Workflow, wl.DFS); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\noriginal plan:")
	fmt.Print(wl.Workflow.Summary())

	res, err := sess.Optimize(ctx, wl.Workflow)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimized plan:")
	fmt.Print(res.Plan.Summary())
	fmt.Printf("optimization took %v over %d optimization units\n\n",
		res.Duration.Round(1e6), len(res.Units))

	// Show the search: what each transformation contributed to each unit.
	for i, u := range res.Units {
		fmt.Printf("unit %d (%s phase): producers=%v consumers=%v, %d subplans, chose %q\n",
			i, u.Phase, u.Producers, u.Consumers, len(u.Subplans),
			u.Subplans[u.ChosenIdx].Description)
		for _, y := range u.Yield {
			if y.Proposed > 0 {
				fmt.Printf("  %-24s proposed %3d, kept %2d, chosen %d\n", y.Transformation, y.Proposed, y.Kept, y.Chosen)
			}
		}
	}

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
	fmt.Printf("\n%d jobs -> %d jobs; simulated runtime %.1fs (baseline) -> %.1fs (%.2fx speedup)\n",
		len(wl.Workflow.Jobs), len(res.Plan.Jobs),
		before.Makespan, after.Makespan, before.Makespan/after.Makespan)
}
