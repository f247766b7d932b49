package stubby_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/gen"
	"github.com/stubby-mr/stubby/internal/mrsim"
)

// The zero-perturbation metamorphic suite pins the fault model's identity
// contract: an attached FaultModel with every rate zero and no node classes
// must be indistinguishable from no model at all — bit-identical makespans
// and task traces from the engine, and byte-identical plans from the
// optimizer. Any drift between the fault-free scheduling arithmetic and the
// FaultyPool path shows up here before it can corrupt nominal results.

// zeroFaultModel is the metamorphic identity: all rates zero, no classes.
// Speculative is deliberately left on — with no stragglers the threshold
// can never trip, and leaving it set proves the gate, not just the flag.
func zeroFaultModel(seed int64) *stubby.FaultModel {
	return &stubby.FaultModel{Seed: seed, Speculative: true}
}

// runEngine executes the identity plan with the given fault model (nil for
// the reference run), recording the per-task trace.
func runEngine(t *testing.T, cluster *stubby.Cluster, dfs *stubby.DFS,
	w *stubby.Workflow, fm *mrsim.FaultModel) *mrsim.RunReport {
	t.Helper()
	eng := mrsim.NewEngine(cluster, dfs.Clone())
	eng.Fault = fm
	eng.RecordTaskEvents = true
	rep, err := eng.RunWorkflow(w)
	if err != nil {
		t.Fatalf("engine run (fault=%v): %v", fm != nil, err)
	}
	return rep
}

// assertIdenticalRuns requires two run reports to agree bit for bit:
// makespan, per-job task counts and timings, and the full task trace.
func assertIdenticalRuns(t *testing.T, want, got *mrsim.RunReport) {
	t.Helper()
	if math.Float64bits(want.Makespan) != math.Float64bits(got.Makespan) {
		t.Errorf("makespan diverged: nil-model %.17g vs zero-model %.17g",
			want.Makespan, got.Makespan)
	}
	if len(want.Jobs) != len(got.Jobs) {
		t.Fatalf("job count diverged: %d vs %d", len(want.Jobs), len(got.Jobs))
	}
	for i, wj := range want.Jobs {
		gj := got.Jobs[i]
		if wj.NumMapTasks != gj.NumMapTasks || wj.NumReduceTasks != gj.NumReduceTasks {
			t.Errorf("job %s task counts diverged: %d/%d maps, %d/%d reduces",
				wj.JobID, wj.NumMapTasks, gj.NumMapTasks, wj.NumReduceTasks, gj.NumReduceTasks)
		}
		if math.Float64bits(wj.End) != math.Float64bits(gj.End) ||
			math.Float64bits(wj.MapsDone) != math.Float64bits(gj.MapsDone) {
			t.Errorf("job %s timings diverged: end %.17g vs %.17g, mapsDone %.17g vs %.17g",
				wj.JobID, wj.End, gj.End, wj.MapsDone, gj.MapsDone)
		}
		if gj.TaskFailures != 0 || gj.TaskRetries != 0 || gj.SpeculativeTasks != 0 {
			t.Errorf("job %s: zero-rate model produced fault activity: failures=%d retries=%d speculated=%d",
				gj.JobID, gj.TaskFailures, gj.TaskRetries, gj.SpeculativeTasks)
		}
	}
	if wb, gb := want.TraceBytes(), got.TraceBytes(); !bytes.Equal(wb, gb) {
		t.Errorf("task traces diverged:\n--- nil model\n%.2000s\n--- zero model\n%.2000s", wb, gb)
	}
}

// TestZeroPerturbationPaperWorkloads runs every paper workload's identity
// plan through the engine with no fault model and with the zero-rate model,
// which must be bit-identical. It then optimizes without a fault model and
// under WithRobustness with the zero-rate and the standard models: the plan
// must be byte-identical each time, since robustness is a report on the plan
// served and the plan store's key holds no fault model. The plan goldens in
// testdata/plans stay the authority for the nominal plans themselves
// (TestPlanSnapshots).
func TestZeroPerturbationPaperWorkloads(t *testing.T) {
	standard, err := stubby.FaultProfile("standard", 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, abbr := range stubby.Workloads() {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			wl := profiledWorkload(t, abbr, differentialSize, 1)
			ref := runEngine(t, wl.Cluster, wl.DFS, wl.Workflow, nil)
			zero := runEngine(t, wl.Cluster, wl.DFS, wl.Workflow, zeroFaultModel(7))
			assertIdenticalRuns(t, ref, zero)

			optimize := func(fm *stubby.FaultModel) *stubby.Result {
				opts := []stubby.SessionOption{
					stubby.WithCluster(wl.Cluster),
					stubby.WithSeed(1),
					stubby.WithOptimizerOptions(stubby.Options{RRSEvals: differentialRRSEvals}),
				}
				if fm != nil {
					opts = append(opts, stubby.WithRobustness(fm, 8))
				}
				sess, err := stubby.NewSession(opts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sess.Optimize(context.Background(), wl.Workflow)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain := optimize(nil)
			if plain.Robustness != nil {
				t.Error("robustness report appeared without WithRobustness")
			}
			zeroRes := optimize(zeroFaultModel(7))
			assertSamePlan(t, plain, zeroRes)
			if rob := zeroRes.Robustness; rob == nil {
				t.Error("no robustness report under the zero-rate model")
			} else {
				// A non-perturbing model yields a degenerate distribution:
				// every sample replays the same schedule. (Mean is a float
				// sum over identical samples, so it may differ in the last
				// ulp; the percentiles are selected, not accumulated.)
				if rob.Min != rob.Max || rob.P50 != rob.Min || rob.P99 != rob.Min {
					t.Errorf("zero-rate model produced a spread: min=%g max=%g p50=%g p99=%g",
						rob.Min, rob.Max, rob.P50, rob.P99)
				}
				if math.Abs(rob.Mean-rob.Min) > 1e-9*rob.Min {
					t.Errorf("zero-rate mean drifted from the common sample: mean=%g sample=%g",
						rob.Mean, rob.Min)
				}
			}
			standardRes := optimize(standard)
			assertSamePlan(t, plain, standardRes)
			if rob := standardRes.Robustness; rob == nil || rob.Min >= rob.Max {
				t.Errorf("standard model: want a report with a spread, got %+v", rob)
			}
		})
	}
}

// TestRobustnessReportForEveryPlanner: the session attaches the report to
// the plan it serves whichever planner chose it, a rule-based one included.
func TestRobustnessReportForEveryPlanner(t *testing.T) {
	wl := profiledWorkload(t, "IR", differentialSize, 1)
	model, err := stubby.FaultProfile("standard", 42)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithPlanner("baseline"),
		stubby.WithRobustness(model, 8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Optimize(context.Background(), wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Robustness == nil {
		t.Error("the baseline planner's plan carries no robustness report")
	}
}

// TestZeroPerturbationGeneratedCases replays the generator corpus through
// the same identity check: for each corpus seed, the identity plan's
// engine run with the zero-rate model must be bit-identical to the
// nil-model run, including sink outputs.
func TestZeroPerturbationGeneratedCases(t *testing.T) {
	for seed := int64(1); seed <= gen.CorpusSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c := gen.Generate(seed, gen.Options{})
			ref := runEngine(t, c.Cluster, c.DFS, c.Workflow, nil)
			zero := runEngine(t, c.Cluster, c.DFS, c.Workflow, zeroFaultModel(seed))
			assertIdenticalRuns(t, ref, zero)

			subject := c.Subject()
			want, err := subject.Reference()
			if err != nil {
				t.Fatal(err)
			}
			subject.Fault = zeroFaultModel(seed)
			got, _, err := subject.Run(c.Workflow)
			if err != nil {
				t.Fatal(err)
			}
			for id, pairs := range want {
				if d := mrsim.DiffPairs(pairs, got[id], 0); d != "" {
					t.Errorf("seed %d: sink %s diverged under the zero-rate model: %s", seed, id, d)
				}
			}
		})
	}
}
