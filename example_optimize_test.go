package stubby_test

import (
	"context"
	"fmt"
	"log"

	"github.com/stubby-mr/stubby"
)

// ExampleSession_Optimize optimizes the paper's running example, the
// Business Report Generation workflow BR (Figure 1, Section 7.1): a scan,
// two group-aggregates, two rollups and two distinct-count jobs. Vertical
// packing folds the scan into both consumers and two more jobs into their
// producers, so the 7 jobs become 4, and the plan runs 1.7x faster than the
// production Baseline's. The search trace names what each optimization unit
// chose. The configuration search is held to 16 evaluations per subplan
// (Options.RRSEvals) to keep the example quick.
func ExampleSession_Optimize() {
	wl, err := stubby.BuildWorkload("BR", stubby.WorkloadOptions{SizeFactor: 0.05, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(7),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 16}))
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Profile(ctx, wl.Workflow, wl.DFS); err != nil {
		log.Fatal(err)
	}
	res, err := sess.Optimize(ctx, wl.Workflow)
	if err != nil {
		log.Fatal(err)
	}
	for i, u := range res.Units {
		fmt.Printf("unit %d (%s): %s\n", i, u.Phase, u.Subplans[u.ChosenIdx].Description)
	}
	fmt.Print(res.Plan.Summary())

	// The reference point of the paper's evaluation: the Baseline planner
	// (Pig's rules and rule-of-thumb configuration).
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
	fmt.Printf("%d jobs -> %d jobs, %.1fx faster than Baseline\n",
		len(wl.Workflow.Jobs), len(res.Plan.Jobs), before.Makespan/after.Makespan)
	// Output:
	// unit 0 (vertical): inter-vertical-replicate(J1); partition(J3#0:range)
	// unit 1 (vertical): intra-vertical(J4); intra-vertical(J5); inter-vertical(J3,J5)
	// unit 2 (vertical): inter-vertical(J4,J6)
	// unit 3 (vertical): no structural change
	// unit 4 (horizontal): partition(J2#0:range); partition(J4+J6#0:range)
	// unit 5 (horizontal): no structural change
	// workflow BR: 4 jobs, 5 datasets
	//   J2       map+reduce in=[lineitem] out=[bypart] branches=1 groups=1 origin=[J1 J2]
	//   J3+J5    map+reduce in=[lineitem] out=[ordersupp] branches=1 groups=1 origin=[J1 J3 J5]
	//   J4+J6    map+reduce in=[bypart] out=[distinctpart] branches=1 groups=1 origin=[J4 J6]
	//   J7       map+reduce in=[ordersupp] out=[distinctsupp] branches=1 groups=1 origin=[J7]
	// 7 jobs -> 4 jobs, 1.7x faster than Baseline
}
