package stubby_test

import (
	"context"
	"fmt"
	"log"

	"github.com/stubby-mr/stubby"
)

// ExampleNewSession shows the session-based quick start: build a workload,
// profile it, optimize it, and execute both plans.
func ExampleNewSession() {
	wl, err := stubby.BuildWorkload("IR", stubby.WorkloadOptions{SizeFactor: 0.15, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(2),
		stubby.WithProfileFraction(0.5),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if err := sess.Profile(ctx, wl.Workflow, wl.DFS); err != nil {
		log.Fatal(err)
	}
	res, err := sess.Optimize(ctx, wl.Workflow)
	if err != nil {
		log.Fatal(err)
	}
	before, err := sess.Run(ctx, wl.DFS.Clone(), wl.Workflow)
	if err != nil {
		log.Fatal(err)
	}
	after, err := sess.Run(ctx, wl.DFS.Clone(), res.Plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IR packs %d jobs into %d; optimized plan is faster: %v\n",
		len(wl.Workflow.Jobs), len(res.Plan.Jobs), after.Makespan < before.Makespan)
	// Output: IR packs 3 jobs into 2; optimized plan is faster: true
}

// progressLog implements a minimal progress reporter: embed NopObserver and
// override only the events of interest. Real observers feed dashboards or
// logs; this one just counts.
type progressLog struct {
	stubby.NopObserver
	units int
}

func (p *progressLog) UnitStarted(workflow, phase string, unit int, jobs []string) {
	p.units++
}

// ExampleWithObserver attaches a progress observer to a session; the
// optimizer reports every optimization unit it opens, every subplan it
// costs, and every incumbent improvement.
func ExampleWithObserver() {
	wl, err := stubby.BuildWorkload("IR", stubby.WorkloadOptions{SizeFactor: 0.1, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	obs := &progressLog{}
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(1),
		stubby.WithObserver(obs),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if err := sess.Profile(ctx, wl.Workflow, wl.DFS); err != nil {
		log.Fatal(err)
	}
	if _, err := sess.Optimize(ctx, wl.Workflow); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimizer reported progress: %v\n", obs.units > 0)
	// Output: optimizer reported progress: true
}

// ExamplePlanners lists the registered planner names — the registry behind
// WithPlanner, Session.Planner, and the CLI's -list-optimizers flag.
func ExamplePlanners() {
	for _, name := range stubby.Planners() {
		fmt.Println(name)
	}
	// Output:
	// stubby
	// vertical
	// horizontal
	// baseline
	// starfish
	// ysmart
	// mrshare
}

// ExampleSession_Planner constructs a named comparator planner from the
// session registry and applies it.
func ExampleSession_Planner() {
	wl, err := stubby.BuildWorkload("PJ", stubby.WorkloadOptions{SizeFactor: 0.1, Seed: 4})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(4))
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Profile(context.Background(), wl.Workflow, wl.DFS); err != nil {
		log.Fatal(err)
	}
	p, err := sess.Planner("ysmart")
	if err != nil {
		log.Fatal(err)
	}
	plan, err := p.Plan(wl.Workflow)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s produced a valid plan: %v\n", p.Name(), plan.Validate() == nil)
	// Output: YSmart produced a valid plan: true
}

// ExampleSession_OptimizeAll fans out over independent workflows on the
// session's bounded worker pool.
func ExampleSession_OptimizeAll() {
	var flows []*stubby.Workflow
	for _, abbr := range []string{"IR", "PJ"} {
		wl, err := stubby.BuildWorkload(abbr, stubby.WorkloadOptions{SizeFactor: 0.1, Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(3))
		if err != nil {
			log.Fatal(err)
		}
		if err := sess.Profile(context.Background(), wl.Workflow, wl.DFS); err != nil {
			log.Fatal(err)
		}
		flows = append(flows, wl.Workflow)
	}
	sess, err := stubby.NewSession(stubby.WithSeed(3), stubby.WithParallelism(2))
	if err != nil {
		log.Fatal(err)
	}
	results, err := sess.OptimizeAll(context.Background(), flows...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimized %d workflows concurrently\n", len(results))
	// Output: optimized 2 workflows concurrently
}
