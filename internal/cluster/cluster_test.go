package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRegisterHeartbeatLease(t *testing.T) {
	t.Parallel()
	c := New(WithLeaseTTL(80 * time.Millisecond))
	id, ttl := c.Register("http://w1", "")
	if id != "w-1" || ttl != 80*time.Millisecond {
		t.Fatalf("Register = %q, %v", id, ttl)
	}
	if !c.Heartbeat(id, 3, 7) {
		t.Fatal("heartbeat for live worker rejected")
	}
	if c.Heartbeat("w-99", 0, 0) {
		t.Fatal("heartbeat for unknown worker accepted")
	}
	st := c.Stats()
	if st.Workers != 1 || st.LiveWorkers != 1 || st.SingleFlightHits != 3 || st.Computes != 7 {
		t.Fatalf("stats = %+v", st)
	}
	// Silence past the TTL expires the lease...
	waitFor(t, "lease expiry", func() bool { return c.Stats().LiveWorkers == 0 })
	// ...and re-registering under the old ID revives it.
	id2, _ := c.Register("http://w1b", id)
	if id2 != id {
		t.Fatalf("re-register assigned %q, want %q", id2, id)
	}
	ws := c.Workers()
	if len(ws) != 1 || !ws[0].Live || ws[0].URL != "http://w1b" {
		t.Fatalf("workers after revive = %+v", ws)
	}
}

func TestHeartbeatAfterMarkDeadDemandsReregister(t *testing.T) {
	t.Parallel()
	c := New()
	id, _ := c.Register("http://w1", "")
	kill(c, id)
	if c.Heartbeat(id, 0, 0) {
		t.Fatal("heartbeat accepted for dead-marked worker")
	}
	if got, _ := c.Register("http://w1", id); got != id {
		t.Fatalf("revival re-register = %q, want %q", got, id)
	}
	if !c.Heartbeat(id, 0, 0) {
		t.Fatal("heartbeat rejected after revival")
	}
}

// live reports whether the worker named id currently holds a lease.
func live(c *Coordinator, id string) bool {
	for _, w := range c.Workers() {
		if w.ID == id {
			return w.Live
		}
	}
	return false
}

// kill marks the worker named id dead, as a failed dispatch would.
func kill(c *Coordinator, id string) {
	c.mu.Lock()
	w := c.workers[id]
	c.mu.Unlock()
	c.markDead(w)
}

// fakeWorker is a minimal stand-in for a stubbyd worker's job API: every
// submission becomes a job whose event stream replays to the configured
// terminal state and closes — or, for state "running", never ends. Every
// request is recorded as "METHOD path".
type fakeWorker struct {
	srv        *httptest.Server
	state      string // terminal state streamed after submission
	result     []byte
	errDoc     *planio.ErrorDoc
	submitCode int  // non-zero: reject submissions with this HTTP status
	lostJobs   bool // accept submissions, then 404 every other job route

	mu       sync.Mutex
	requests []string
}

func (f *fakeWorker) count(prefix string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, r := range f.requests {
		if strings.HasPrefix(r, prefix) {
			n++
		}
	}
	return n
}

func (f *fakeWorker) submits() int { return f.count("POST /v1/jobs") - f.count("POST /v1/jobs/") }

func newFakeWorker(t *testing.T, state string, result []byte) *fakeWorker {
	t.Helper()
	f := &fakeWorker{state: state, result: result}
	lost := func(w http.ResponseWriter) bool {
		if f.lostJobs {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(planio.ErrorEnvelope{Error: &planio.ErrorDoc{Kind: "not_found", Message: "unknown job"}})
		}
		return f.lostJobs
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if f.submitCode != 0 {
			w.WriteHeader(f.submitCode)
			_ = json.NewEncoder(w).Encode(planio.ErrorEnvelope{Error: f.errDoc})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(planio.SubmitResponse{ID: fmt.Sprintf("job-%d", f.submits()), State: "queued"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		if lost(w) {
			return
		}
		enc := json.NewEncoder(w)
		_ = enc.Encode(planio.EventDoc{Type: planio.EventStateChanged, JobID: r.PathValue("id"), State: "running"})
		w.(http.Flusher).Flush()
		if f.state == "running" {
			<-r.Context().Done() // never terminal: held open until the coordinator hangs up
			return
		}
		_ = enc.Encode(planio.EventDoc{Type: planio.EventStateChanged, JobID: r.PathValue("id"), State: f.state, Error: f.errDoc})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		if !lost(w) {
			_, _ = w.Write(f.result)
		}
	})
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(planio.StatusDoc{ID: r.PathValue("id"), State: "canceled"})
	})
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.requests = append(f.requests, r.Method+" "+r.URL.Path)
		f.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// keepAlive heartbeats the worker named id until the test ends.
func keepAlive(t *testing.T, c *Coordinator, id string) {
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		tick := time.NewTicker(15 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				c.Heartbeat(id, 0, 0)
			}
		}
	}()
}

// TestDispatchRoundTrip also pins the data plane's cost: an
// already-terminal job is exactly three worker requests — submit, the
// event stream, the result — and never a status poll.
func TestDispatchRoundTrip(t *testing.T) {
	t.Parallel()
	want := []byte(`{"plan":"dispatched"}`)
	fw := newFakeWorker(t, "done", want)
	c := New()
	id, _ := c.Register(fw.srv.URL, "")
	res, err := c.Dispatch(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if string(res) != string(want) {
		t.Fatalf("Dispatch result = %q, want %q", res, want)
	}
	st := c.Stats()
	if st.Dispatches != 1 || st.Redispatches != 0 || st.Failovers != 0 {
		t.Fatalf("counters = %+v", st)
	}
	if !live(c, id) {
		t.Fatal("worker lost its lease over a successful dispatch")
	}
	wantReqs := []string{"POST /v1/jobs", "GET /v1/jobs/job-1/events", "GET /v1/jobs/job-1/result"}
	if got := fw.requests; !reflect.DeepEqual(got, wantReqs) {
		t.Fatalf("worker requests = %q, want %q", got, wantReqs)
	}
}

// TestDispatchRotatesTies: jobs that arrive one at a time find every worker
// idle, so every pick is a tie — and ties must take turns rather than all
// go to the lowest ID.
func TestDispatchRotatesTies(t *testing.T) {
	t.Parallel()
	workers := []*fakeWorker{newFakeWorker(t, "done", nil), newFakeWorker(t, "done", nil), newFakeWorker(t, "done", nil)}
	c := New()
	for _, fw := range workers {
		c.Register(fw.srv.URL, "")
	}
	for i := 0; i < 6; i++ {
		if _, err := c.Dispatch(context.Background(), []byte(`{}`)); err != nil {
			t.Fatalf("Dispatch %d: %v", i, err)
		}
	}
	for i, fw := range workers {
		if n := fw.submits(); n != 2 {
			t.Errorf("worker %d took %d of 6 sequential jobs, want 2", i, n)
		}
	}
}

// TestDispatchPlanRequiredIsNotADispatch: a worker that refuses a
// key-first probe with "plan required" ran nothing. The refusal comes back
// as it is (the caller relays it), costs the worker neither its lease nor
// its turn, and is not counted — the full document that follows is the
// job's dispatch.
func TestDispatchPlanRequiredIsNotADispatch(t *testing.T) {
	t.Parallel()
	refusing := newFakeWorker(t, "done", nil)
	refusing.submitCode = http.StatusNotFound
	refusing.errDoc = &planio.ErrorDoc{Kind: "not_found", Op: "probe", Message: "plan required"}
	other := newFakeWorker(t, "done", nil)
	c := New()
	id, _ := c.Register(refusing.srv.URL, "")
	c.Register(other.srv.URL, "")
	_, err := c.Dispatch(context.Background(), []byte(`{}`))
	if !errors.Is(err, stubbyerr.KindNotFound) || !strings.Contains(err.Error(), "plan required") {
		t.Fatalf("Dispatch error = %v, want the worker's plan-required refusal", err)
	}
	if st := c.Stats(); st.Dispatches != 0 || st.Redispatches != 0 || st.Leases != 0 || !live(c, id) {
		t.Fatalf("after a refused probe: %+v, want nothing counted and the worker live", st)
	}
	if refusing.submits() != 1 || other.submits() != 0 {
		t.Fatalf("submits = %d and %d, want the refusal final", refusing.submits(), other.submits())
	}
	// The refusal took no turn: the next document goes to the same worker.
	refusing.submitCode = 0
	if _, err := c.Dispatch(context.Background(), []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Dispatches != 1 || refusing.submits() != 2 {
		t.Fatalf("after the full document: %+v, %d submits on the refusing worker; want 1 dispatch there", st, refusing.submits())
	}
}

func TestDispatchNoWorkersFailsOver(t *testing.T) {
	t.Parallel()
	c := New()
	_, err := c.Dispatch(context.Background(), []byte(`{}`))
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Dispatch error = %v, want ErrNoWorkers", err)
	}
	if st := c.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
}

func TestDispatchPermanentErrorNoRetry(t *testing.T) {
	t.Parallel()
	fw := newFakeWorker(t, "done", nil)
	fw.submitCode = http.StatusBadRequest
	fw.errDoc = &planio.ErrorDoc{Kind: "invalid", Message: "bad plan"}
	c := New()
	c.Register(fw.srv.URL, "")
	_, err := c.Dispatch(context.Background(), []byte(`{}`))
	if err == nil || errors.Is(err, ErrNoWorkers) {
		t.Fatalf("Dispatch error = %v, want permanent error", err)
	}
	if n := fw.submits(); n != 1 {
		t.Fatalf("submits = %d, want 1 (no retry on permanent errors)", n)
	}
	if st := c.Stats(); st.LiveWorkers != 1 {
		t.Fatal("permanent error killed the worker's lease")
	}
}

// TestDispatchJobFailureIsPermanent: a job that ended failed — even with
// a cause of a kind the transport would retry — is the job's outcome, not
// the worker's fault: no re-dispatch, and the worker keeps its lease.
func TestDispatchJobFailureIsPermanent(t *testing.T) {
	t.Parallel()
	fw := newFakeWorker(t, "failed", nil)
	fw.errDoc = &planio.ErrorDoc{Kind: "internal", Message: "search exploded"}
	other := newFakeWorker(t, "done", nil)
	c := New()
	c.Register(fw.srv.URL, "")
	c.Register(other.srv.URL, "")
	_, err := c.Dispatch(context.Background(), []byte(`{}`))
	if err == nil || !strings.Contains(err.Error(), "search exploded") {
		t.Fatalf("Dispatch error = %v, want the job's own failure", err)
	}
	if st := c.Stats(); st.Redispatches != 0 || st.LiveWorkers != 2 {
		t.Fatalf("counters = %+v, want no re-dispatch and both workers live", st)
	}
	if a, b := fw.submits(), other.submits(); a != 1 || b != 0 {
		t.Fatalf("submits = %d and %d, want 1 and 0", a, b)
	}
}

// TestDispatchLeaseExpiryCutsWait: worker A accepts the job and holds its
// event stream open forever; worker B completes. Nothing polls — A's lease
// lapsing is what cuts the blocked wait — so the job must land on B within
// about two TTLs, and no goroutine may be left on A's stream.
func TestDispatchLeaseExpiryCutsWait(t *testing.T) {
	const ttl = 60 * time.Millisecond
	want := []byte(`{"plan":"from-b"}`)
	wa := newFakeWorker(t, "running", nil)
	wb := newFakeWorker(t, "done", want)
	before := runtime.NumGoroutine()
	c := New(WithLeaseTTL(ttl))
	idA, _ := c.Register(wa.srv.URL, "")
	idB, _ := c.Register(wb.srv.URL, "")
	keepAlive(t, c, idB) // only B heartbeats
	// A coordinator's first pick is the lowest ID: the first attempt goes to A.
	start := time.Now()
	res, err := c.Dispatch(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	// About one TTL on an idle machine; the bounds only tell "cut by the
	// lease" from "never waited" and "rescued by some longer timeout".
	if d := time.Since(start); d < ttl/2 || d > 20*ttl {
		t.Fatalf("re-dispatched after %v, want about the %v lease TTL", d, ttl)
	}
	if string(res) != string(want) {
		t.Fatalf("Dispatch result = %q, want %q", res, want)
	}
	if st := c.Stats(); st.Redispatches != 1 {
		t.Fatalf("redispatches = %d, want 1 (counters %+v)", st.Redispatches, st)
	}
	if live(c, idA) {
		t.Fatal("dead worker still holds a lease")
	}
	if wa.submits() != 1 || wb.submits() != 1 {
		t.Fatalf("submits a=%d b=%d, want 1 each", wa.submits(), wb.submits())
	}
	if n := wa.count("POST /v1/jobs/"); n != 0 {
		t.Fatalf("lease expiry sent %d cancels to the lost worker, want 0 (its journal must keep the job)", n)
	}
	// Everything the dispatch started is gone: the wait on A's stream, its
	// connection, the expiry timer's callback. (The one goroutine allowed
	// is keepAlive's ticker.)
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "dispatch goroutines to exit", func() bool { return runtime.NumGoroutine() <= before+1 })
}

// TestDispatchLostJobRedispatches: a worker that accepted the job and then
// no longer knows it (restarted inside its lease without a journal) must
// not fail the client's job — the 404 is about the worker, not the request.
func TestDispatchLostJobRedispatches(t *testing.T) {
	t.Parallel()
	want := []byte(`{"plan":"from-b"}`)
	wa := newFakeWorker(t, "done", nil)
	wa.lostJobs = true
	wb := newFakeWorker(t, "done", want)
	c := New()
	idA, _ := c.Register(wa.srv.URL, "")
	c.Register(wb.srv.URL, "")
	res, err := c.Dispatch(context.Background(), []byte(`{}`))
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if string(res) != string(want) {
		t.Fatalf("Dispatch result = %q, want %q", res, want)
	}
	if st := c.Stats(); st.Redispatches != 1 || st.Failovers != 0 {
		t.Fatalf("counters = %+v, want exactly one re-dispatch", st)
	}
	if live(c, idA) {
		t.Fatal("the worker that lost the job still holds a lease")
	}
}

// TestDispatchContextCancel: when the caller gives up with the job in
// flight, Dispatch returns the caller's error and the worker's copy gets
// exactly one cancel.
func TestDispatchContextCancel(t *testing.T) {
	t.Parallel()
	fw := newFakeWorker(t, "running", nil) // never finishes
	c := New()
	id, _ := c.Register(fw.srv.URL, "")
	keepAlive(t, c, id)
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	_, err := c.Dispatch(ctx, []byte(`{}`))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Dispatch error = %v, want deadline exceeded", err)
	}
	if n := fw.count("POST /v1/jobs/job-1/cancel"); n != 1 {
		t.Fatalf("worker saw %d cancels for the abandoned job, want 1 (requests %q)", n, fw.requests)
	}
	if fw.submits() != 1 || !live(c, id) {
		t.Fatalf("caller cancel re-dispatched or cost the worker its lease (requests %q)", fw.requests)
	}
}

func TestAgentLifecycle(t *testing.T) {
	t.Parallel()
	c := New(WithLeaseTTL(120 * time.Millisecond))
	mux := http.NewServeMux()
	c.Handle(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var hits, comps atomic.Uint64
	hits.Store(5)
	comps.Store(2)
	a := NewAgent(srv.URL, "http://worker-1", WithAgentStats(func() (uint64, uint64) {
		return hits.Load(), comps.Load()
	}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()

	waitFor(t, "agent registration", func() bool { return c.Stats().LiveWorkers == 1 })
	waitFor(t, "heartbeat-reported stats", func() bool {
		st := c.Stats()
		return st.SingleFlightHits == 5 && st.Computes == 2
	})
	id := a.ID()
	if id == "" {
		t.Fatal("agent has no ID after registration")
	}

	// A coordinator that marks the worker dead (or restarts) rejects the
	// next heartbeat; the agent must re-register under the same ID.
	kill(c, id)
	waitFor(t, "agent re-registration", func() bool {
		return c.Stats().LiveWorkers == 1 && a.ID() == id
	})

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not stop on context cancel")
	}
}
