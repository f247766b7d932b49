// Package service implements the asynchronous job machinery behind
// Session.Submit and the stubbyd server: a bounded admission queue feeding
// a fixed worker pool, per-job lifecycle state with cancellation, and a
// replayable event broker per job.
//
// The package is deliberately generic — jobs run opaque closures and
// brokers carry opaque events — so it sits below the public stubby package
// (which defines the typed Event stream) without an import cycle.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stubby-mr/stubby/internal/stubbyerr"
)

// State is a job's lifecycle state. The transition graph is a DAG:
//
//	Queued ──▶ Running ──▶ Done
//	   │           ├─────▶ Failed
//	   └───────────┴─────▶ Canceled
type State int32

const (
	// Queued: admitted, waiting for a worker.
	Queued State = iota
	// Running: a worker is executing the job.
	Running
	// Done: finished successfully; the result is available.
	Done
	// Failed: finished with an error.
	Failed
	// Canceled: stopped by cancellation, before or during execution.
	Canceled
)

var stateNames = [...]string{"queued", "running", "done", "failed", "canceled"}

// String returns the state's canonical wire spelling.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int32(s))
	}
	return stateNames[s]
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

// ParseState maps a wire spelling back to a State.
func ParseState(v string) (State, error) {
	for i, n := range stateNames {
		if n == v {
			return State(i), nil
		}
	}
	return 0, fmt.Errorf("service: unknown state %q", v)
}

// StateChange is the lifecycle event a job publishes into its broker on
// every transition. The public package maps it onto its typed
// StateChangedEvent when draining the stream.
type StateChange struct {
	State State
	Err   error // terminal failure/cancellation cause, nil otherwise
}

// Broker is a per-job event log with fan-out: every event is retained, and
// each subscriber replays the log from the beginning before following live
// publishes. Retaining the full log makes subscription timing irrelevant —
// an HTTP event stream attached after the job finished still observes the
// complete lifecycle.
type Broker struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []any
	closed bool
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	b := &Broker{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Publish appends ev to the log and wakes subscribers. Publishing to a
// closed broker is a no-op.
func (b *Broker) Publish(ev any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.events = append(b.events, ev)
	b.cond.Broadcast()
}

// Close seals the log: subscribers finish their replay and their channels
// close. Close is idempotent.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
}

// Subscribe returns a channel that replays every event published so far,
// then follows live publishes. The channel closes when the broker closes
// (after the replay drains) or when ctx is done.
func (b *Broker) Subscribe(ctx context.Context) <-chan any {
	return b.SubscribeFrom(ctx, 0)
}

// Len returns the number of events published so far — the sequence number
// the next published event will occupy.
func (b *Broker) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

// SubscribeFrom is Subscribe with a resume cursor: the replay starts at
// sequence number `from` (the index of an event in the broker's
// append-only log; event i is the i-th ever published) instead of 0. A
// reconnecting consumer that counted the events it already received can
// therefore resume with exactly the missed suffix — no gaps, no
// duplicates. Subscribing past the log on a closed broker yields an
// immediately-closed channel; on a live one it waits for the log to grow.
func (b *Broker) SubscribeFrom(ctx context.Context, from int) <-chan any {
	ch := make(chan any)
	// A canceled context must wake a subscriber blocked in cond.Wait.
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.cond.Broadcast()
	})
	go func() {
		defer close(ch)
		defer stop()
		next := from
		if next < 0 {
			next = 0
		}
		for {
			b.mu.Lock()
			for next >= len(b.events) && !b.closed && ctx.Err() == nil {
				b.cond.Wait()
			}
			if ctx.Err() != nil {
				b.mu.Unlock()
				return
			}
			if next >= len(b.events) { // closed and fully replayed
				b.mu.Unlock()
				return
			}
			ev := b.events[next]
			next++
			b.mu.Unlock()
			select {
			case ch <- ev:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

// Job is one unit of asynchronous work: a closure plus lifecycle state, a
// cancellation scope, and an event broker. All methods are safe for
// concurrent use.
type Job struct {
	id     string
	run    func(context.Context) (any, error)
	broker *Broker

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	err      error
	result   any
	canceled bool // Cancel was requested (distinguishes external ctx errors)
	done     chan struct{}
}

// NewJob builds a queued job around run. The job's execution context is
// independent of the submitter's: it lives until the job finishes or
// Cancel fires.
func NewJob(id string, run func(context.Context) (any, error)) *Job {
	return NewJobWithDeadline(id, time.Time{}, run)
}

// NewJobWithDeadline is NewJob with an absolute execution deadline (zero =
// none): the job's context expires at the deadline, so a submission whose
// client propagated its deadline over the wire fails with a deadline error
// instead of burning a worker past the point anyone is waiting.
func NewJobWithDeadline(id string, deadline time.Time, run func(context.Context) (any, error)) *Job {
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline.IsZero() {
		ctx, cancel = context.WithCancel(context.Background())
	} else {
		ctx, cancel = context.WithDeadline(context.Background(), deadline)
	}
	j := &Job{
		id:     id,
		run:    run,
		broker: NewBroker(),
		ctx:    ctx,
		cancel: cancel,
		state:  Queued,
		done:   make(chan struct{}),
	}
	j.broker.Publish(StateChange{State: Queued})
	return j
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the job's outcome. It is only meaningful once the job is
// terminal (Wait first, or read Done()).
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal or ctx is done, returning ctx's
// error in the latter case (the job keeps running).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel requests cancellation: a queued job transitions to Canceled
// immediately (it will never run); a running job's context is canceled and
// the job transitions when its closure returns. Cancel is idempotent and a
// no-op on terminal jobs.
func (j *Job) Cancel() {
	j.mu.Lock()
	j.canceled = true
	switch j.state {
	case Queued:
		j.finishLocked(Canceled, nil, context.Canceled)
		j.mu.Unlock()
	case Running:
		j.mu.Unlock()
		j.cancel()
	default:
		j.mu.Unlock()
	}
}

// Publish emits an event into the job's broker.
func (j *Job) Publish(ev any) { j.broker.Publish(ev) }

// Events subscribes to the job's event stream (see Broker.Subscribe).
func (j *Job) Events(ctx context.Context) <-chan any { return j.broker.Subscribe(ctx) }

// EventsFrom subscribes with a resume cursor (see Broker.SubscribeFrom): a
// reconnecting consumer that counted its received events resumes with
// exactly the missed suffix.
func (j *Job) EventsFrom(ctx context.Context, from int) <-chan any {
	return j.broker.SubscribeFrom(ctx, from)
}

// Finish completes a queued job in place with res, bypassing the worker
// pool — the fast path for submissions whose result is already at hand
// (e.g. a plan-store hit). Subscribers still observe the full lifecycle:
// Running is published immediately before the terminal Done. Finish is a
// no-op unless the job is still Queued (in particular, a canceled job
// stays canceled) and reports whether it completed the job.
func (j *Job) Finish(res any) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Queued {
		return false
	}
	j.state = Running
	j.broker.Publish(StateChange{State: Running})
	j.finishLocked(Done, res, nil)
	return true
}

// Execute runs the job on the calling goroutine (the worker). A job
// canceled while queued is skipped.
func (j *Job) Execute() {
	j.mu.Lock()
	if j.state != Queued {
		j.mu.Unlock()
		return
	}
	j.state = Running
	j.mu.Unlock()
	j.broker.Publish(StateChange{State: Running})

	res, err := j.run(j.ctx)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Running { // unreachable today; guards future transitions
		return
	}
	switch {
	case err == nil:
		j.finishLocked(Done, res, nil)
	case errors.Is(err, context.Canceled):
		j.finishLocked(Canceled, nil, err)
	default:
		j.finishLocked(Failed, nil, err)
	}
}

// finishLocked moves the job to a terminal state. Callers hold j.mu.
func (j *Job) finishLocked(s State, res any, err error) {
	j.state = s
	j.result = res
	j.err = err
	j.cancel() // release the context's resources in every terminal path
	j.broker.Publish(StateChange{State: s, Err: err})
	j.broker.Close()
	close(j.done)
}

// Queue is a bounded admission queue in front of a fixed worker pool.
// Submit never blocks: a full queue sheds the job with a typed
// KindOverloaded error instead of queueing unbounded work, and a draining
// queue rejects with KindUnavailable.
type Queue struct {
	jobs chan *Job
	// freed holds a token when a worker has taken a job off jobs since
	// SubmitWait last looked: what a submitter waiting for room wakes on.
	freed   chan struct{}
	workers int
	busy    atomic.Int64
	wg      sync.WaitGroup

	mu        sync.Mutex
	closed    bool
	closeOnce sync.Once
}

// NewQueue starts workers goroutines serving a queue of the given depth.
// Both are clamped to at least 1.
func NewQueue(workers, depth int) *Queue {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	q := &Queue{jobs: make(chan *Job, depth), freed: make(chan struct{}, 1), workers: workers}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer q.wg.Done()
			for j := range q.jobs {
				select {
				case q.freed <- struct{}{}:
				default:
				}
				q.busy.Add(1)
				j.Execute()
				q.busy.Add(-1)
			}
		}()
	}
	return q
}

// Depth returns the queue's admission capacity.
func (q *Queue) Depth() int { return cap(q.jobs) }

// Workers returns the worker-pool size.
func (q *Queue) Workers() int { return q.workers }

// Queued returns the number of jobs admitted but not yet picked up by a
// worker (a point-in-time snapshot).
func (q *Queue) Queued() int { return len(q.jobs) }

// Busy returns the number of workers currently executing a job (a
// point-in-time snapshot).
func (q *Queue) Busy() int { return int(q.busy.Load()) }

// Submit admits j, or rejects it with KindOverloaded (queue full) or
// KindUnavailable (draining). It never blocks.
func (q *Queue) Submit(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return stubbyerr.New(stubbyerr.KindUnavailable, "submit", "", "",
			"service is draining and accepts no new jobs")
	}
	select {
	case q.jobs <- j:
		return nil
	default:
		return stubbyerr.New(stubbyerr.KindOverloaded, "submit", "", "",
			"admission queue full (depth %d)", cap(q.jobs))
	}
}

// SubmitWait admits j like Submit, but where Submit would shed it waits for
// a worker to make room. It is for work that was already accepted and may
// not be refused — a journaled backlog re-enqueued after a restart — never
// for traffic. It returns KindUnavailable once the queue drains, or ctx's
// error.
func (q *Queue) SubmitWait(ctx context.Context, j *Job) error {
	for {
		err := q.Submit(j)
		if !errors.Is(err, stubbyerr.KindOverloaded) {
			return err
		}
		// Full: workers are busy or about to be, and the next job one of
		// them takes leaves a token here.
		select {
		case <-q.freed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Drain stops admission and waits — up to ctx — for the workers to finish
// every job already admitted (queued jobs still run; cancel them first for
// a fast drain). Drain is idempotent; on ctx expiry it returns ctx's error
// while workers keep draining in the background.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.closeOnce.Do(func() { close(q.jobs) })
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
