// TPC-H: the Business Analytics Query workflow (TPC-H Q17, Section 7.1)
// compared across every optimizer of the paper's evaluation: the Pig-style
// Baseline, Starfish (configuration only), YSmart (rule-based packing),
// MRShare (cost-based horizontal packing), and full Stubby.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/stubby-mr/stubby"
)

func main() {
	wl, err := stubby.BuildWorkload("BA", stubby.WorkloadOptions{SizeFactor: 0.25, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (%s): %.0f GB of simulated lineitem/part data, co-partitioned on partID\n\n",
		wl.Abbr, wl.Title, wl.PaperGB)
	ctx := context.Background()
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Profile(ctx, wl.Workflow, wl.DFS); err != nil {
		log.Fatal(err)
	}
	var baseline float64
	for _, name := range []string{"baseline", "starfish", "ysmart", "mrshare", "stubby"} {
		p, err := sess.Planner(name)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		plan, err := p.Plan(wl.Workflow)
		if err != nil {
			log.Fatalf("%s: %v", p.Name(), err)
		}
		opt := time.Since(t0)
		rep, err := sess.Run(ctx, wl.DFS.Clone(), plan)
		if err != nil {
			log.Fatalf("%s plan failed: %v", p.Name(), err)
		}
		if baseline == 0 {
			baseline = rep.Makespan
		}
		fmt.Printf("%-10s %d jobs  %8.1fs simulated  %5.2fx vs Baseline  (optimizer ran %v)\n",
			p.Name(), len(plan.Jobs), rep.Makespan, baseline/rep.Makespan, opt.Round(time.Millisecond))
	}
}
