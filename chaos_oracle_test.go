package stubby_test

import (
	"fmt"
	"testing"

	"github.com/stubby-mr/stubby/internal/gen"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/optimizer"
	"github.com/stubby-mr/stubby/internal/profile"
)

// The chaos-mode oracle suite injects failures, stragglers, heterogeneous
// node speeds, and speculative re-execution into the execution engine and
// re-runs the semantic-equivalence oracle: for generated workflows, both
// the identity plan and the Stubby-optimized plan must still produce
// tuple-for-tuple identical sink outputs. The fault model is only allowed
// to move simulated time — retried attempts, canceled speculative backups,
// and slow nodes must never duplicate, drop, or reorder a record. Each
// failure message embeds the (workflow seed, fault seed) pair needed to
// reproduce it.

// chaosSeeds is how many generator seeds the suite sweeps (ISSUE floor: 20).
const chaosSeeds = 20

// chaosRRSEvals caps the per-case search budget; equivalence must hold at
// any budget and the small one keeps the 20x3 matrix tractable under -race.
const chaosRRSEvals = 40

// chaosProfiles are the three fault regimes the matrix sweeps.
var chaosProfiles = []string{"standard", "failures", "stragglers"}

func TestChaosOracleGeneratedWorkflows(t *testing.T) {
	// Aggregate fault activity across the whole matrix: the suite is only
	// meaningful if the injected faults actually fire.
	var totalFailures, totalSpeculated int
	for i := 0; i < chaosSeeds; i++ {
		seed := int64(i + 1)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := gen.Generate(seed, gen.Options{})
			if err := profile.NewProfiler(c.Cluster, 0.5, seed).Annotate(c.Workflow, c.DFS); err != nil {
				t.Fatalf("workflow seed %d: profiling: %v", seed, err)
			}
			opt := optimizer.New(c.Cluster, optimizer.Options{
				Seed:     seed,
				RRSEvals: chaosRRSEvals,
			})
			res, err := opt.Optimize(c.Workflow)
			if err != nil {
				t.Fatalf("workflow seed %d: optimize: %v", seed, err)
			}

			subject := c.Subject()
			// The fault-free identity run defines the semantics every
			// perturbed run is judged against.
			ref, err := subject.Reference()
			if err != nil {
				t.Fatal(err)
			}
			for pi, prof := range chaosProfiles {
				prof := prof
				faultSeed := mrsim.PerturbSeed(seed, pi)
				t.Run(prof, func(t *testing.T) {
					model, err := mrsim.FaultProfile(prof, faultSeed)
					if err != nil {
						t.Fatal(err)
					}
					subject.Fault = model
					defer func() { subject.Fault = nil }()

					// Identity plan under faults: outputs must match the
					// fault-free reference exactly.
					outs, rep, err := subject.Run(c.Workflow)
					if err != nil {
						t.Fatalf("workflow seed %d, fault seed %d (%s): identity run failed: %v",
							seed, faultSeed, prof, err)
					}
					for id, pairs := range ref {
						if d := mrsim.DiffPairs(pairs, outs[id], 0); d != "" {
							t.Errorf("workflow seed %d, fault seed %d (%s): identity sink %s diverged: %s",
								seed, faultSeed, prof, id, d)
						}
					}
					for _, j := range rep.Jobs {
						totalFailures += j.TaskFailures
						totalSpeculated += j.SpeculativeTasks
					}

					// Optimized plan under the same faults: the oracle's
					// full check (validate, execute, compare every sink).
					if err := subject.CheckPlan(ref, "stubby/"+prof, res.Plan); err != nil {
						t.Errorf("workflow seed %d, fault seed %d: %v", seed, faultSeed, err)
					}
				})
			}
		})
	}
	if totalFailures == 0 {
		t.Error("chaos matrix injected no task failures anywhere; the fault model is not firing")
	}
	if totalSpeculated == 0 {
		t.Error("chaos matrix launched no speculative backups anywhere; speculation is not firing")
	}
}

// TestChaosFaultDeterminismAcrossRuns re-executes one (plan, fault seed)
// pair and requires byte-identical task traces and makespans — the replay
// contract the robustness evaluator depends on.
func TestChaosFaultDeterminismAcrossRuns(t *testing.T) {
	c := gen.Generate(3, gen.Options{})
	model, err := mrsim.FaultProfile("standard", 99)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *mrsim.RunReport {
		eng := mrsim.NewEngine(c.Cluster, c.DFS.Clone())
		eng.Fault = model
		eng.RecordTaskEvents = true
		rep, err := eng.RunWorkflow(c.Workflow)
		if err != nil {
			t.Fatalf("workflow seed 3, fault seed 99: %v", err)
		}
		return rep
	}
	first := run()
	for i := 0; i < 3; i++ {
		again := run()
		if first.Makespan != again.Makespan {
			t.Fatalf("run %d: makespan diverged: %.17g vs %.17g", i, first.Makespan, again.Makespan)
		}
		if string(first.TraceBytes()) != string(again.TraceBytes()) {
			t.Fatalf("run %d: task trace diverged for the same (plan, fault seed)", i)
		}
	}
}
