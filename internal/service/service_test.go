package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/stubby-mr/stubby/internal/stubbyerr"
)

// collect drains a subscription into a slice (the broker must be closed).
func collect(t *testing.T, ch <-chan any) []any {
	t.Helper()
	var out []any
	for ev := range ch {
		out = append(out, ev)
	}
	return out
}

func TestBrokerReplaysFullLogToLateSubscribers(t *testing.T) {
	b := NewBroker()
	b.Publish("a")
	b.Publish("b")
	early := b.Subscribe(context.Background())
	b.Publish("c")
	b.Close()
	late := b.Subscribe(context.Background())

	want := []any{"a", "b", "c"}
	for name, ch := range map[string]<-chan any{"early": early, "late": late} {
		got := collect(t, ch)
		if len(got) != len(want) {
			t.Fatalf("%s subscriber saw %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s subscriber saw %v, want %v", name, got, want)
			}
		}
	}
}

func TestBrokerSubscribeHonorsContext(t *testing.T) {
	b := NewBroker()
	b.Publish("a")
	ctx, cancel := context.WithCancel(context.Background())
	ch := b.Subscribe(ctx)
	<-ch // consume the replayed event, then hang on an open broker
	cancel()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("expected closed channel after cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription did not close after context cancel")
	}
}

func TestJobLifecycleDone(t *testing.T) {
	j := NewJob("j1", func(ctx context.Context) (any, error) { return 42, nil })
	if got := j.State(); got != Queued {
		t.Fatalf("state = %v, want queued", got)
	}
	j.Execute()
	if got := j.State(); got != Done {
		t.Fatalf("state = %v, want done", got)
	}
	res, err := j.Result()
	if err != nil || res != 42 {
		t.Fatalf("result = %v, %v", res, err)
	}
	var states []State
	for ev := range j.Events(context.Background()) {
		if sc, ok := ev.(StateChange); ok {
			states = append(states, sc.State)
		}
	}
	want := []State{Queued, Running, Done}
	if len(states) != len(want) {
		t.Fatalf("state transitions %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state transitions %v, want %v", states, want)
		}
	}
}

func TestJobFailurePreservesError(t *testing.T) {
	boom := errors.New("boom")
	j := NewJob("j1", func(ctx context.Context) (any, error) { return nil, boom })
	j.Execute()
	if got := j.State(); got != Failed {
		t.Fatalf("state = %v, want failed", got)
	}
	if _, err := j.Result(); !errors.Is(err, boom) {
		t.Fatalf("result err = %v, want boom", err)
	}
}

func TestJobCancelWhileQueued(t *testing.T) {
	ran := false
	j := NewJob("j1", func(ctx context.Context) (any, error) { ran = true; return nil, nil })
	j.Cancel()
	if got := j.State(); got != Canceled {
		t.Fatalf("state = %v, want canceled", got)
	}
	j.Execute() // a worker picking up a canceled job must skip it
	if ran {
		t.Fatal("canceled queued job still ran")
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("done channel not closed")
	}
}

func TestJobCancelWhileRunning(t *testing.T) {
	started := make(chan struct{})
	j := NewJob("j1", func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	go j.Execute()
	<-started
	j.Cancel()
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := j.State(); got != Canceled {
		t.Fatalf("state = %v, want canceled", got)
	}
}

func TestQueueShedsWithOverloadedKind(t *testing.T) {
	q := NewQueue(1, 1)
	release := make(chan struct{})
	block := func(ctx context.Context) (any, error) { <-release; return nil, nil }

	running := NewJob("running", func(ctx context.Context) (any, error) { <-release; return nil, nil })
	queued := NewJob("queued", block)
	shed := NewJob("shed", block)

	if err := q.Submit(running); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked the first job up, so the queue slot is
	// truly free for the second.
	deadline := time.Now().Add(5 * time.Second)
	for running.State() != Running {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.Submit(queued); err != nil {
		t.Fatal(err)
	}
	err := q.Submit(shed)
	if !errors.Is(err, stubbyerr.KindOverloaded) {
		t.Fatalf("third submit error = %v, want KindOverloaded", err)
	}
	var se *stubbyerr.Error
	if !errors.As(err, &se) {
		t.Fatalf("overload error is not a *stubbyerr.Error: %v", err)
	}
	close(release)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if running.State() != Done || queued.State() != Done {
		t.Fatalf("states after drain: %v, %v", running.State(), queued.State())
	}
}

// TestQueueSubmitWait: where Submit sheds, SubmitWait waits for a worker to
// make room — every job of a backlog five times the queue's capacity is
// admitted and runs — and it gives up only with its context or the queue.
func TestQueueSubmitWait(t *testing.T) {
	q := NewQueue(1, 1)
	release := make(chan struct{})
	var jobs []*Job
	admitted := make(chan error)
	go func() {
		for i := 0; i < 10; i++ {
			j := NewJob("j", func(ctx context.Context) (any, error) {
				<-release
				return nil, nil
			})
			jobs = append(jobs, j)
			if err := q.SubmitWait(context.Background(), j); err != nil {
				admitted <- err
				return
			}
		}
		close(admitted)
	}()
	// One job runs, one is queued, the third waits: a submitter with a
	// deadline gives up while it does.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	for {
		err := q.SubmitWait(ctx, NewJob("late", func(context.Context) (any, error) { return nil, nil }))
		if errors.Is(err, context.DeadlineExceeded) {
			break
		}
		if err != nil {
			t.Fatalf("SubmitWait on a full queue = %v, want the context's error", err)
		}
		// Admitted before the backlog filled the queue; it waits its turn.
	}
	close(release)
	if err := <-admitted; err != nil {
		t.Fatalf("SubmitWait refused a job: %v", err)
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		if j.State() != Done {
			t.Fatalf("job %d state %v after drain", i, j.State())
		}
	}
	err := q.SubmitWait(context.Background(), NewJob("late", func(context.Context) (any, error) { return nil, nil }))
	if !errors.Is(err, stubbyerr.KindUnavailable) {
		t.Fatalf("SubmitWait after drain = %v, want KindUnavailable", err)
	}
}

func TestQueueRejectsAfterDrain(t *testing.T) {
	q := NewQueue(1, 4)
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := q.Submit(NewJob("late", func(ctx context.Context) (any, error) { return nil, nil }))
	if !errors.Is(err, stubbyerr.KindUnavailable) {
		t.Fatalf("submit after drain = %v, want KindUnavailable", err)
	}
}

func TestQueueDrainRunsQueuedJobs(t *testing.T) {
	q := NewQueue(2, 8)
	var mu sync.Mutex
	ran := 0
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j := NewJob("j", func(ctx context.Context) (any, error) {
			mu.Lock()
			ran++
			mu.Unlock()
			return nil, nil
		})
		jobs = append(jobs, j)
		if err := q.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if ran != 6 {
		t.Fatalf("ran %d jobs, want 6", ran)
	}
	for _, j := range jobs {
		if j.State() != Done {
			t.Fatalf("job state %v after drain", j.State())
		}
	}
}

func TestParseStateRoundTrip(t *testing.T) {
	for _, s := range []State{Queued, Running, Done, Failed, Canceled} {
		got, err := ParseState(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseState(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseState("nope"); err == nil {
		t.Fatal("ParseState accepted garbage")
	}
}
