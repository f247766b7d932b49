package stubby_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stubby-mr/stubby"
)

// profiledWorkload builds and profiles one of the paper's workloads for
// session tests.
func profiledWorkload(t *testing.T, abbr string, size float64, seed int64) *stubby.Workload {
	t.Helper()
	wl, err := stubby.BuildWorkload(abbr, stubby.WorkloadOptions{SizeFactor: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(seed),
		stubby.WithProfileFraction(0.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Profile(context.Background(), wl.Workflow, wl.DFS); err != nil {
		t.Fatal(err)
	}
	return wl
}

// exportBytes snapshots a plan for unmodified-input assertions.
func exportBytes(t *testing.T, w *stubby.Workflow) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := stubby.ExportPlan(&buf, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionOptimizeMatchesSerial: the optimizer tunes a unit's subplans
// on one worker per estimator, and the number of workers changes nothing —
// not the plan, its cost, any unit's trace or yields, nor the What-if
// counters — over the eight paper workloads. Under -short (the race tier) a
// small RRS budget keeps the 24 searches quick; the worker loop is the same
// at any budget.
func TestSessionOptimizeMatchesSerial(t *testing.T) {
	ctx := context.Background()
	var opts stubby.Options
	if testing.Short() {
		opts.RRSEvals = 24
	}
	for _, abbr := range stubby.Workloads() {
		wl := profiledWorkload(t, abbr, 0.1, 2)
		var serial *stubby.Result
		for _, p := range []int{1, 2, 8} {
			sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(2),
				stubby.WithParallelism(p), stubby.WithOptimizerOptions(opts))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Optimize(ctx, wl.Workflow)
			if err != nil {
				t.Fatalf("%s P=%d: %v", abbr, p, err)
			}
			if serial == nil {
				serial = res
				continue
			}
			if !bytes.Equal(exportBytes(t, serial.Plan), exportBytes(t, res.Plan)) {
				t.Errorf("%s P=%d: plan differs from P=1's", abbr, p)
			}
			if res.EstimatedCost != serial.EstimatedCost {
				t.Errorf("%s P=%d: cost %v, P=1 %v", abbr, p, res.EstimatedCost, serial.EstimatedCost)
			}
			if !reflect.DeepEqual(res.Units, serial.Units) {
				t.Errorf("%s P=%d: unit reports differ from P=1's", abbr, p)
			}
			if res.WhatIfCalls != serial.WhatIfCalls || res.WhatIfComputed != serial.WhatIfComputed ||
				res.FlowCards != serial.FlowCards {
				t.Errorf("%s P=%d: what-if counters %d/%d/%d, P=1 %d/%d/%d", abbr, p,
					res.WhatIfCalls, res.WhatIfComputed, res.FlowCards,
					serial.WhatIfCalls, serial.WhatIfComputed, serial.FlowCards)
			}
		}
	}
}

// cancelOnFirstUnit cancels the context as soon as the optimizer reports
// progress, simulating a client abandoning a long-running optimization.
type cancelOnFirstUnit struct {
	stubby.NopObserver
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnFirstUnit) UnitStarted(string, string, int, []string) {
	c.once.Do(c.cancel)
}

func TestOptimizeCancellation(t *testing.T) {
	wl := profiledWorkload(t, "BA", 0.15, 3)
	before := exportBytes(t, wl.Workflow)

	// Already-cancelled context: immediate ctx.Err(), input untouched.
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Optimize(cancelled, wl.Workflow); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Optimize: got %v, want context.Canceled", err)
	}

	// Cancel mid-search from the observer: prompt ctx.Err(), bounded wait.
	ctx, cancelMid := context.WithCancel(context.Background())
	obs := &cancelOnFirstUnit{cancel: cancelMid}
	sess2, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster), stubby.WithSeed(3), stubby.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = sess2.Optimize(ctx, wl.Workflow)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-search cancel: got %v, want context.Canceled", err)
	}
	if wait := time.Since(start); wait > 10*time.Second {
		t.Fatalf("cancellation not prompt: took %v", wait)
	}
	if after := exportBytes(t, wl.Workflow); !bytes.Equal(before, after) {
		t.Fatal("cancelled Optimize modified the input plan")
	}
}

// cancelOnFirstJob cancels the context from the engine's first job event.
type cancelOnFirstJob struct {
	stubby.NopObserver
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnFirstJob) JobFinished(string, string, float64, float64) {
	c.once.Do(c.cancel)
}

func TestRunCancellation(t *testing.T) {
	wl := profiledWorkload(t, "IR", 0.15, 4)
	before := exportBytes(t, wl.Workflow)

	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Run(cancelled, wl.DFS.Clone(), wl.Workflow); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Run: got %v, want context.Canceled", err)
	}

	// IR has multiple jobs, so cancelling after the first one interrupts
	// the run midway.
	ctx, cancelMid := context.WithCancel(context.Background())
	obs := &cancelOnFirstJob{cancel: cancelMid}
	sess2, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = sess2.Run(ctx, wl.DFS.Clone(), wl.Workflow)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: got %v, want context.Canceled", err)
	}
	if wait := time.Since(start); wait > 10*time.Second {
		t.Fatalf("cancellation not prompt: took %v", wait)
	}
	if after := exportBytes(t, wl.Workflow); !bytes.Equal(before, after) {
		t.Fatal("cancelled Run modified the input plan")
	}
}

// countingObserver tallies events across concurrent optimizations; it must
// be concurrent-safe because OptimizeAll calls it from several goroutines.
type countingObserver struct {
	units, subplans, improved, jobs, cacheReports atomic.Int64
}

func (c *countingObserver) UnitStarted(string, string, int, []string)      { c.units.Add(1) }
func (c *countingObserver) SubplanEnumerated(string, int, string, float64) { c.subplans.Add(1) }
func (c *countingObserver) BestCostImproved(string, int, string, float64)  { c.improved.Add(1) }
func (c *countingObserver) JobFinished(string, string, float64, float64)   { c.jobs.Add(1) }
func (c *countingObserver) EstimateCacheReport(string, stubby.EstimateCacheStats) {
	c.cacheReports.Add(1)
}

// TestSessionOptimizeAllConcurrent locks in concurrent-safety of a shared
// session: four workloads optimized on one session's worker pool (run under
// -race in CI).
func TestSessionOptimizeAllConcurrent(t *testing.T) {
	abbrs := []string{"IR", "SN", "PJ", "US"}
	var flows []*stubby.Workflow
	for i, abbr := range abbrs {
		wl := profiledWorkload(t, abbr, 0.1, int64(10+i))
		flows = append(flows, wl.Workflow)
	}
	obs := &countingObserver{}
	sess, err := stubby.NewSession(
		stubby.WithSeed(7),
		stubby.WithParallelism(4),
		stubby.WithObserver(obs),
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sess.OptimizeAll(context.Background(), flows...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(flows) {
		t.Fatalf("got %d results, want %d", len(results), len(flows))
	}
	for i, res := range results {
		if res == nil || res.Plan == nil {
			t.Fatalf("workflow %s: nil result", abbrs[i])
		}
		if err := res.Plan.Validate(); err != nil {
			t.Fatalf("workflow %s: invalid plan: %v", abbrs[i], err)
		}
	}
	if obs.units.Load() == 0 || obs.subplans.Load() == 0 {
		t.Fatalf("observer saw no progress: units=%d subplans=%d",
			obs.units.Load(), obs.subplans.Load())
	}
}

// TestSessionOptimizeAllCancellation: one cancelled fan-out returns
// ctx.Err() and does not hang the pool.
func TestSessionOptimizeAllCancellation(t *testing.T) {
	wl := profiledWorkload(t, "IR", 0.1, 5)
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sess.OptimizeAll(ctx, wl.Workflow, wl.Workflow, wl.Workflow)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled OptimizeAll: got %v, want context.Canceled", err)
	}
}

func TestSessionPlannerRegistry(t *testing.T) {
	names := stubby.Planners()
	if len(names) != 7 || names[0] != "stubby" {
		t.Fatalf("Planners() = %v", names)
	}
	sess, err := stubby.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		p, err := sess.Planner(name)
		if err != nil {
			t.Fatalf("Planner(%q): %v", name, err)
		}
		if _, ok := p.(stubby.ContextPlanner); !ok {
			t.Errorf("built-in planner %q does not implement ContextPlanner", name)
		}
	}
	// Lookup is case-insensitive (bench figures use display names).
	if _, err := sess.Planner("Stubby"); err != nil {
		t.Fatalf("case-insensitive lookup failed: %v", err)
	}
	if _, err := sess.Planner("nope"); err == nil || !strings.Contains(err.Error(), "unknown planner") {
		t.Fatalf("unknown planner: got %v", err)
	}
	// Unknown planner name is rejected at session construction.
	if _, err := stubby.NewSession(stubby.WithPlanner("nope")); err == nil {
		t.Fatal("NewSession(WithPlanner(nope)) should fail")
	}
	// Conflicting group restrictions are rejected rather than silently
	// preferring one.
	if _, err := stubby.NewSession(
		stubby.WithOptimizerOptions(stubby.Options{Groups: stubby.GroupAll}),
		stubby.WithPlanner("vertical")); err == nil ||
		!strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("conflicting Groups+WithPlanner: got %v", err)
	}
	// Refining full Stubby with a group restriction stays allowed.
	if _, err := stubby.NewSession(
		stubby.WithOptimizerOptions(stubby.Options{Groups: stubby.GroupVertical}),
		stubby.WithPlanner("stubby")); err != nil {
		t.Fatalf("Groups refinement of stubby rejected: %v", err)
	}
	if _, err := stubby.NewSession(
		stubby.WithPlanner("vertical"),
		stubby.WithOptimizerOptions(stubby.Options{Groups: stubby.GroupHorizontal}),
	); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("conflicting base-option Groups+WithPlanner: got %v", err)
	}
	// The comparators are row selections too: a Groups restriction they
	// would have to ignore is a conflict, not a silent no-op.
	for _, name := range []string{"starfish", "mrshare"} {
		if _, err := stubby.NewSession(
			stubby.WithPlanner(name),
			stubby.WithOptimizerOptions(stubby.Options{Groups: stubby.GroupVertical}),
		); err == nil || !strings.Contains(err.Error(), "conflicts") {
			t.Fatalf("conflicting Groups+WithPlanner(%q): got %v", name, err)
		}
	}
}

func TestSessionWithNamedPlanner(t *testing.T) {
	wl := profiledWorkload(t, "PJ", 0.1, 6)
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(6),
		stubby.WithPlanner("ysmart"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Optimize(context.Background(), wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.EstimatedCost <= 0 {
		t.Fatalf("named-planner result unusable: %+v", res)
	}
	if _, err := sess.Run(context.Background(), wl.DFS.Clone(), res.Plan); err != nil {
		t.Fatalf("ysmart plan failed to run: %v", err)
	}
}

// TestSessionRegisterPlanner extends one session's registry without
// affecting the default registry.
func TestSessionRegisterPlanner(t *testing.T) {
	sess, err := stubby.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	spec := stubby.PlannerSpec{
		Name:        "identity",
		Description: "returns the plan unchanged",
		New: func(c *stubby.Cluster, seed int64) stubby.Planner {
			return identityPlanner{}
		},
	}
	if err := sess.RegisterPlanner(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Planner("identity"); err != nil {
		t.Fatalf("registered planner not found: %v", err)
	}
	for _, name := range stubby.Planners() {
		if name == "identity" {
			t.Fatal("session registration leaked into the default registry")
		}
	}
}

type identityPlanner struct{}

func (identityPlanner) Name() string { return "Identity" }
func (identityPlanner) Plan(w *stubby.Workflow) (*stubby.Workflow, error) {
	return w.Clone(), nil
}
