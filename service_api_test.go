package stubby_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stubby-mr/stubby"
)

// blockingPlanner is a registrable planner whose search parks until
// released (or until its context is canceled) — the instrument for
// exercising queue admission, overload shedding, and mid-flight
// cancellation deterministically.
type blockingPlanner struct {
	started chan struct{} // buffered; receives one token per started plan
	release chan struct{}
}

func (p blockingPlanner) Name() string { return "blocking" }

func (p blockingPlanner) Plan(w *stubby.Workflow) (*stubby.Workflow, error) {
	return p.PlanContext(context.Background(), w)
}

func (p blockingPlanner) PlanContext(ctx context.Context, w *stubby.Workflow) (*stubby.Workflow, error) {
	select {
	case p.started <- struct{}{}:
	default:
	}
	select {
	case <-p.release:
		return w, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// registerBlocking registers the blocking planner on sess and returns its
// control channels.
func registerBlocking(t *testing.T, sess *stubby.Session) (started, release chan struct{}) {
	t.Helper()
	started = make(chan struct{}, 16)
	release = make(chan struct{})
	err := sess.RegisterPlanner(stubby.PlannerSpec{
		Name:        "blocking",
		Description: "parks until released (test instrument)",
		New: func(c *stubby.Cluster, seed int64) stubby.Planner {
			return blockingPlanner{started: started, release: release}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return started, release
}

// tinyWorkload builds a small unprofiled workload (fallback estimates are
// fine for lifecycle tests; profiled search behavior is covered by
// TestSubmitMatchesOptimize).
func tinyWorkload(t *testing.T, abbr string) *stubby.Workload {
	t.Helper()
	wl, err := stubby.BuildWorkload(abbr, stubby.WorkloadOptions{SizeFactor: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestSubmitMatchesOptimize is the core async-API contract: Submit's
// result is the same plan Optimize returns, the handle walks
// Queued→Running→Done, and the event stream replays the full lifecycle
// with search progress to any subscriber, even one attaching after the
// job finished.
func TestSubmitMatchesOptimize(t *testing.T) {
	wl := profiledWorkload(t, "IR", 0.1, 1)
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(1),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 40}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(context.Background())
	ctx := context.Background()

	want, err := sess.Optimize(ctx, wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}
	if h.ID() == "" || h.WorkflowName() != wl.Workflow.Name {
		t.Fatalf("handle id=%q workflow=%q", h.ID(), h.WorkflowName())
	}
	got, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fpOf(t, got.Plan) != fpOf(t, want.Plan) {
		t.Fatalf("Submit plan differs from Optimize plan")
	}
	if got.EstimatedCost != want.EstimatedCost {
		t.Fatalf("Submit cost %v != Optimize cost %v", got.EstimatedCost, want.EstimatedCost)
	}
	if st := h.State(); st != stubby.StateDone {
		t.Fatalf("state after Wait = %v, want done", st)
	}
	if p := h.Progress(); p.Units == 0 || p.Subplans == 0 {
		t.Fatalf("progress snapshot empty: %+v", p)
	}

	// Late subscription replays the entire stream.
	var states []stubby.JobState
	units := 0
	for ev := range h.Events(ctx) {
		switch e := ev.(type) {
		case stubby.StateChangedEvent:
			states = append(states, e.State)
		case stubby.UnitStartedEvent:
			units++
		}
	}
	wantStates := []stubby.JobState{stubby.StateQueued, stubby.StateRunning, stubby.StateDone}
	if len(states) != len(wantStates) {
		t.Fatalf("state events %v, want %v", states, wantStates)
	}
	for i := range wantStates {
		if states[i] != wantStates[i] {
			t.Fatalf("state events %v, want %v", states, wantStates)
		}
	}
	if units == 0 {
		t.Fatal("no UnitStarted events in replay")
	}
}

// TestSubmitOverloadShedsTyped: with one worker parked and the depth-1
// queue holding one job, the next submission must shed immediately with
// ErrKindOverloaded — not hang, not queue.
func TestSubmitOverloadShedsTyped(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithParallelism(1),
		stubby.WithQueueDepth(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	started, release := registerBlocking(t, sess)
	defer sess.Close(context.Background())
	ctx := context.Background()
	req := stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking"}

	running, err := sess.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds job 1; the queue slot is free
	queued, err := sess.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Submit(ctx, req)
	if !errors.Is(err, stubby.ErrKindOverloaded) {
		t.Fatalf("third submit = %v, want ErrKindOverloaded", err)
	}
	var se *stubby.Error
	if !errors.As(err, &se) {
		t.Fatalf("overload error is not *stubby.Error: %v", err)
	}
	if se.Workflow != wl.Workflow.Name {
		t.Fatalf("overload error workflow = %q, want %q", se.Workflow, wl.Workflow.Name)
	}

	close(release)
	for _, h := range []*stubby.OptimizeHandle{running, queued} {
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitCancel covers both cancellation windows: a queued job
// transitions immediately and never runs; a running job transitions when
// the search observes its canceled context.
func TestSubmitCancel(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithParallelism(1),
		stubby.WithQueueDepth(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	started, release := registerBlocking(t, sess)
	defer close(release)
	defer sess.Close(context.Background())
	ctx := context.Background()
	req := stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking"}

	running, err := sess.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := sess.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel while queued: immediate, never runs.
	queued.Cancel()
	if st := queued.State(); st != stubby.StateCanceled {
		t.Fatalf("queued job state after cancel = %v, want canceled", st)
	}
	if _, err := queued.Wait(ctx); !errors.Is(err, stubby.ErrKindCanceled) {
		t.Fatalf("queued Wait = %v, want ErrKindCanceled", err)
	}

	// Cancel while running: the blocking search unparks via ctx.
	running.Cancel()
	if _, err := running.Wait(ctx); !errors.Is(err, stubby.ErrKindCanceled) {
		t.Fatalf("running Wait = %v, want ErrKindCanceled", err)
	}
	if st := running.State(); st != stubby.StateCanceled {
		t.Fatalf("running job state = %v, want canceled", st)
	}
	// The canceled-while-queued job must not have started.
	select {
	case <-started:
		t.Fatal("canceled queued job started")
	default:
	}
}

// TestSessionCloseDrains: Close rejects new submissions with
// ErrKindUnavailable and waits for admitted jobs.
func TestSessionCloseDrains(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h, err := sess.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if st := h.State(); st != stubby.StateDone {
		t.Fatalf("job state after Close = %v, want done", st)
	}
	_, err = sess.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
	if !errors.Is(err, stubby.ErrKindUnavailable) {
		t.Fatalf("submit after Close = %v, want ErrKindUnavailable", err)
	}
}

// TestSubmitValidation: nil workflows and unknown planners fail fast with
// their kinds, before touching the queue.
func TestSubmitValidation(t *testing.T) {
	sess, err := stubby.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(context.Background())
	ctx := context.Background()
	if _, err := sess.Submit(ctx, stubby.OptimizeRequest{}); !errors.Is(err, stubby.ErrKindInvalid) {
		t.Fatalf("nil workflow = %v, want ErrKindInvalid", err)
	}
	wl := tinyWorkload(t, "IR")
	_, err = sess.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "nope"})
	if !errors.Is(err, stubby.ErrKindUnknownPlanner) {
		t.Fatalf("unknown planner = %v, want ErrKindUnknownPlanner", err)
	}
}

// TestEstimateContextCancellation: Session.Estimate observes its context
// between What-if jobs and surfaces ErrKindCanceled.
func TestEstimateContextCancellation(t *testing.T) {
	wl := profiledWorkload(t, "PJ", 0.05, 1)
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Estimate(ctx, wl.Workflow); !errors.Is(err, stubby.ErrKindCanceled) {
		t.Fatalf("Estimate under canceled ctx = %v, want ErrKindCanceled", err)
	}
	// A live context estimates.
	est, err := sess.Estimate(context.Background(), wl.Workflow)
	if err != nil || est == nil || est.Makespan <= 0 {
		t.Fatalf("Estimate = %v, %v", est, err)
	}
}

// TestSessionErrorsCarryTaxonomy: the synchronous Session entry points
// surface *stubby.Error on failure.
func TestSessionErrorsCarryTaxonomy(t *testing.T) {
	// An invalid workflow: a job reading a dataset that does not exist.
	bad := &stubby.Workflow{Name: "bad"}
	bad.Jobs = append(bad.Jobs, &stubby.Job{
		ID: "j1",
		MapBranches: []stubby.MapBranch{{
			Input: "missing",
			Stages: []stubby.Stage{stubby.MapStage("id", func(k, v stubby.Tuple, emit stubby.Emit) {
				emit(k, v)
			}, 0)},
		}},
		ReduceGroups: []stubby.ReduceGroup{{Output: "out"}},
	})

	sess, err := stubby.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, err = sess.Optimize(ctx, bad)
	var se *stubby.Error
	if !errors.As(err, &se) {
		t.Fatalf("Optimize on invalid workflow = %v, want *stubby.Error", err)
	}
	if !errors.Is(err, stubby.ErrKindInvalid) {
		t.Fatalf("Optimize kind = %v, want ErrKindInvalid", se.Kind)
	}
	if se.Workflow != "bad" {
		t.Fatalf("Optimize error workflow = %q, want bad", se.Workflow)
	}

	if err := sess.Profile(ctx, bad, stubby.NewDFS()); !errors.As(err, &se) {
		t.Fatalf("Profile on invalid workflow = %v, want *stubby.Error", err)
	}
	if _, err := sess.Estimate(ctx, bad); err != nil {
		// Fallback estimation tolerates missing annotations; reaching here
		// means the workflow itself broke TopoSort — still must be typed.
		if !errors.As(err, &se) {
			t.Fatalf("Estimate = %v, want *stubby.Error", err)
		}
	}
}

// TestObserverEventsAdapter: the deprecated-Observer adapter routes every
// event type to its method.
func TestObserverEventsAdapter(t *testing.T) {
	rec := &recordingObserver{}
	sink := stubby.ObserverEvents(rec)
	sink(stubby.UnitStartedEvent{Workflow: "w", Phase: "vertical", Unit: 1, Jobs: []string{"j"}})
	sink(stubby.SubplanEnumeratedEvent{Workflow: "w", Unit: 1, Desc: "d", Cost: 2})
	sink(stubby.BestCostImprovedEvent{Workflow: "w", Unit: 1, Desc: "d", Cost: 1})
	sink(stubby.JobFinishedEvent{Workflow: "w", Job: "j", Start: 0, End: 1})
	sink(stubby.CacheReportEvent{Workflow: "w"})
	sink(stubby.StateChangedEvent{Workflow: "w", State: stubby.StateDone}) // dropped, no panic
	want := []string{"unit", "subplan", "best", "job", "cache"}
	if len(rec.calls) != len(want) {
		t.Fatalf("adapter calls %v, want %v", rec.calls, want)
	}
	for i := range want {
		if rec.calls[i] != want[i] {
			t.Fatalf("adapter calls %v, want %v", rec.calls, want)
		}
	}
}

type recordingObserver struct {
	stubby.NopObserver
	calls []string
}

func (r *recordingObserver) UnitStarted(string, string, int, []string) {
	r.calls = append(r.calls, "unit")
}
func (r *recordingObserver) SubplanEnumerated(string, int, string, float64) {
	r.calls = append(r.calls, "subplan")
}
func (r *recordingObserver) BestCostImproved(string, int, string, float64) {
	r.calls = append(r.calls, "best")
}
func (r *recordingObserver) JobFinished(string, string, float64, float64) {
	r.calls = append(r.calls, "job")
}
func (r *recordingObserver) EstimateCacheReport(string, stubby.EstimateCacheStats) {
	r.calls = append(r.calls, "cache")
}

// TestSubmitFeedsDeprecatedObserver: a session Observer keeps receiving
// search progress for Submit traffic (the deprecated adapter in action).
func TestSubmitFeedsDeprecatedObserver(t *testing.T) {
	wl := profiledWorkload(t, "IR", 0.1, 1)
	rec := &recordingObserver{}
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(1),
		stubby.WithObserver(rec),
		stubby.WithParallelism(1), // serial: the recording observer is not locked
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 20}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(context.Background())
	h, err := sess.Submit(context.Background(), stubby.OptimizeRequest{Workflow: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	saw := map[string]bool{}
	for _, c := range rec.calls {
		saw[c] = true
	}
	if !saw["unit"] || !saw["subplan"] {
		t.Fatalf("observer missed submit progress: %v", rec.calls)
	}
}

// TestSubmitKeepsOptionsObserver: a progress function installed directly
// through WithOptimizerOptions (Options.Progress, which replaced the
// optimizer-level observer this test is named after) keeps receiving search
// events for submitted jobs — the handle's sink is composed after it, not
// in place of it.
func TestSubmitKeepsOptionsObserver(t *testing.T) {
	wl := profiledWorkload(t, "IR", 0.1, 1)
	var units atomic.Int64
	progress := func(ev stubby.Event) {
		if _, ok := ev.(stubby.UnitStartedEvent); ok {
			units.Add(1)
		}
	}
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(1),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 20, Progress: progress}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(context.Background())
	h, err := sess.Submit(context.Background(), stubby.OptimizeRequest{Workflow: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if units.Load() == 0 {
		t.Fatal("Options.Progress received no events from Submit")
	}
	if p := h.Progress(); int64(p.Units) != units.Load() {
		t.Fatalf("handle and Options.Progress disagree: %d vs %d units", p.Units, units.Load())
	}
}

// waitGoroutinesBelow asserts the goroutine count returns to (near) the
// baseline, retrying while stragglers unwind.
func waitGoroutinesBelow(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+3 { // tolerance for runtime/testing helpers
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
