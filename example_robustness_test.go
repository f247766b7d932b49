package stubby_test

import (
	"context"
	"fmt"
	"log"

	"github.com/stubby-mr/stubby"
)

// ExampleSession_robustness attaches a fault model to the session so every
// result reports how its plan fares under perturbation: task failures with
// retries, lognormal stragglers, speculative re-execution, and a slow node
// class. The report Monte-Carlo-replays the plan's schedule across
// derived perturbation seeds and summarizes the makespan distribution; the
// plan itself is the one the session chooses without a fault model.
func ExampleSession_robustness() {
	wl, err := stubby.BuildWorkload("IR", stubby.WorkloadOptions{SizeFactor: 0.15, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	// "standard": 2% task failures, stragglers, speculation, 30 fast + 20 slow nodes.
	model, err := stubby.FaultProfile("standard", 42)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(2),
		stubby.WithRobustness(model, 32),
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
	rob := res.Robustness
	fmt.Printf("perturbation samples: %d\n", rob.Samples)
	fmt.Printf("distribution ordered: %v\n", rob.Min <= rob.P50 && rob.P50 <= rob.P95 && rob.P95 <= rob.P99 && rob.P99 <= rob.Max)
	fmt.Printf("faults slow the plan down: %v\n", rob.Mean > res.EstimatedCost)
	fmt.Printf("every sample completed: %v\n", rob.FailedOut == 0)
	// Output:
	// perturbation samples: 32
	// distribution ordered: true
	// faults slow the plan down: true
	// every sample completed: true
}
