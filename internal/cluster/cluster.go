// Package cluster turns stubbyd into a horizontally scaled service: a
// coordinator accepts the ordinary /v1/jobs API and dispatches each
// optimization to a pool of registered workers, themselves plain stubbyd
// processes that also run an Agent (register + heartbeat).
//
// The control plane is deliberately thin. Workers register with a base URL
// and renew a lease by heartbeating; the data plane is the existing job
// wire — the coordinator is an ordinary job-API client of its workers
// (internal/jobclient, the transport stubby.Client uses): it submits to a
// worker's /v1/jobs, follows its event stream to the terminal state, and
// fetches the result document verbatim. Failure handling composes with
// the layers below rather than duplicating them: a worker whose lease
// expires mid-job, or that no longer knows the job it was handed, gets its
// jobs re-dispatched to a live worker, and because every worker shares the
// plan store (and may journal its queue), a re-dispatched or
// crash-recovered job converges to the byte-identical plan through the
// store's content addressing and cross-replica single-flight. A caller
// that gives up has its cancel forwarded to the worker.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/stubby-mr/stubby/internal/jobclient"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/stats"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
)

// ErrNoWorkers reports a dispatch attempted with no live workers. The
// serving layer treats it as the failover signal: the coordinator's own
// session optimizes locally instead of failing the job.
var ErrNoWorkers = errors.New("cluster: no live workers")

const (
	// DefaultLeaseTTL is how long a silent worker keeps its lease.
	DefaultLeaseTTL = 3 * time.Second
	// maxDispatchAttempts bounds re-dispatch: a job that fails
	// transiently on this many distinct attempts stops bouncing.
	maxDispatchAttempts = 8
	// cancelGrace bounds the best-effort cancel sent to a worker after the
	// dispatching caller gave up.
	cancelGrace = time.Second
)

// worker is one registration of a replica. Re-registering replaces it, so
// a dispatch that outlives its worker's lease keeps talking about the
// registration it was handed, never a revived one.
type worker struct {
	id  string
	url string
	t   *jobclient.Transport

	// lease ends when the registration does: expiry, markDead, or a
	// re-registration under the same ID. Every dispatch in flight on the
	// worker waits under it.
	lease  context.Context
	end    context.CancelFunc
	expiry *time.Timer

	lastBeat time.Time
	dead     bool // lease lapsed or marked unreachable; revives by re-registering
	leases   int  // in-flight dispatches held by this worker

	// Last heartbeat-reported store counters, summed into Stats so the
	// coordinator can report cluster-wide single-flight effectiveness
	// without polling every worker.
	claimHits uint64
	computes  uint64
}

// Coordinator owns cluster membership and job dispatch.
type Coordinator struct {
	leaseTTL time.Duration

	mu      sync.Mutex
	workers map[string]*worker
	nextID  int
	last    string // ID of the worker that took the last attempt; pick's ties go to the one after it

	dispatches   uint64
	redispatches uint64
	failovers    uint64
}

// Option configures a Coordinator.
type Option func(*Coordinator)

// WithLeaseTTL sets how long a worker's lease survives without a
// heartbeat. Heartbeats are sent at a third of the TTL.
func WithLeaseTTL(d time.Duration) Option {
	return func(c *Coordinator) {
		if d > 0 {
			c.leaseTTL = d
		}
	}
}

// New builds a Coordinator with no workers.
func New(opts ...Option) *Coordinator {
	c := &Coordinator{leaseTTL: DefaultLeaseTTL, workers: make(map[string]*worker)}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Register admits (or revives) a worker and returns its ID and lease TTL.
// A worker re-registering under its previous ID keeps it; an unknown or
// empty ID gets a fresh one.
func (c *Coordinator) Register(wurl, id string) (string, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := &worker{id: id, url: wurl, t: jobclient.New(wurl), lastBeat: time.Now()}
	if old, ok := c.workers[id]; id != "" && ok {
		c.retireLocked(old)
		w.claimHits, w.computes = old.claimHits, old.computes
	} else {
		c.nextID++
		w.id = fmt.Sprintf("w-%d", c.nextID)
	}
	w.lease, w.end = context.WithCancel(context.Background())
	w.expiry = time.AfterFunc(c.leaseTTL, func() { c.expire(w) })
	c.workers[w.id] = w
	return w.id, c.leaseTTL
}

// Heartbeat renews a worker's lease and records its reported store
// counters. It reports false — re-register — for workers the coordinator
// does not know, has marked dead, or whose lease lapsed, so a worker that
// was presumed lost re-admits itself cleanly instead of heartbeating into
// the void.
func (c *Coordinator) Heartbeat(id string, claimHits, computes uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok || w.dead {
		return false
	}
	w.lastBeat = time.Now()
	w.expiry.Reset(c.leaseTTL)
	w.claimHits = claimHits
	w.computes = computes
	return true
}

// expire is the lease timer firing: a worker silent for the whole TTL is
// retired, which cuts every dispatch waiting on it. A heartbeat that won
// the race for the lock has already re-armed the timer.
func (c *Coordinator) expire(w *worker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if time.Since(w.lastBeat) >= c.leaseTTL {
		c.retireLocked(w)
	}
}

// retireLocked ends a registration: no new dispatches, in-flight waits
// cut. Callers hold c.mu.
func (c *Coordinator) retireLocked(w *worker) {
	w.dead = true
	w.expiry.Stop()
	w.end()
}

// markDead drops a worker from dispatch until it re-registers.
func (c *Coordinator) markDead(w *worker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retireLocked(w)
}

// pick returns the live worker with the fewest in-flight dispatches, or nil
// when no worker holds a lease. Ties rotate: among the least-leased, the
// first ID after that of the worker that took the last attempt wins
// (wrapping to the lowest), so that short jobs arriving one at a time —
// every worker idle, every pick a tie — spread over the cluster instead of
// all landing on the lowest ID.
func (c *Coordinator) pick() *worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *worker
	for _, w := range c.workers {
		if w.dead {
			continue
		}
		if best == nil || w.leases < best.leases ||
			(w.leases == best.leases && rotatedLess(w.id, best.id, c.last)) {
			best = w
		}
	}
	if best != nil {
		best.leases++
	}
	return best
}

// rotatedLess orders IDs cyclically, starting just after pivot: IDs above
// the pivot come first, in order, then the rest.
func rotatedLess(a, b, pivot string) bool {
	if (a > pivot) != (b > pivot) {
		return a > pivot
	}
	return a < b
}

// settle closes one attempt on w: the lease is returned, the attempt is
// counted and the tie-break rotates past w — unless the worker refused the
// document outright with "plan required" (a key-first probe it holds no
// answer for). Nothing ran there, so the refusal is not the job's dispatch
// and takes no turn; the full document that follows it is and does.
func (c *Coordinator) settle(w *worker, attempt int, refused bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.leases--
	if refused {
		return
	}
	c.last = w.id
	if attempt == 0 {
		c.dispatches++
	} else {
		c.redispatches++
	}
}

// Workers snapshots the membership for /v1/cluster/workers.
func (c *Coordinator) Workers() []planio.WorkerDoc {
	c.mu.Lock()
	defer c.mu.Unlock()
	docs := make([]planio.WorkerDoc, 0, len(c.workers))
	for _, w := range c.workers {
		docs = append(docs, planio.WorkerDoc{
			ID:         w.id,
			URL:        w.url,
			Live:       !w.dead,
			Leases:     w.leases,
			LastBeatMS: w.lastBeat.UnixMilli(),
		})
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
	return docs
}

// Stats snapshots the cluster counters for /statsz. SingleFlightHits and
// Computes are cluster-wide sums of the workers' last-reported store
// counters.
func (c *Coordinator) Stats() stats.Cluster {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := stats.Cluster{
		Workers:      len(c.workers),
		Dispatches:   c.dispatches,
		Redispatches: c.redispatches,
		Failovers:    c.failovers,
	}
	for _, w := range c.workers {
		if !w.dead {
			st.LiveWorkers++
			st.Leases += w.leases
		}
		st.SingleFlightHits += w.claimHits
		st.Computes += w.computes
	}
	return st
}

// Dispatch runs one encoded optimize request (a planio request document,
// full or key-first — it is never parsed here) on the cluster and returns
// the worker's encoded result document, equally unparsed. Transient
// failures — an unreachable worker, a drained or overloaded one, a lease
// expiring mid-job, a worker that lost the job — mark the worker dead and
// re-dispatch to another, up to maxDispatchAttempts. Permanent failures (an
// invalid request, the optimization itself failing, a worker answering a
// key-first document "plan required") return immediately: they would fail
// identically anywhere. With no live workers it returns ErrNoWorkers, the
// caller's cue to fail over to local optimization. When ctx ends with the
// job in flight, the worker's copy is canceled and ctx's error returned.
func (c *Coordinator) Dispatch(ctx context.Context, body []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < maxDispatchAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		w := c.pick()
		if w == nil {
			c.mu.Lock()
			c.failovers++
			c.mu.Unlock()
			if lastErr != nil {
				return nil, fmt.Errorf("%w (after: %v)", ErrNoWorkers, lastErr)
			}
			return nil, ErrNoWorkers
		}
		res, transient, err := c.runOn(ctx, w, body)
		c.settle(w, attempt, err != nil && !transient && errors.Is(err, stubbyerr.KindNotFound))
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !transient {
			return nil, err
		}
		// Transient: presume the worker lost, re-dispatch elsewhere. The
		// worker re-admits itself by re-registering once healthy.
		c.markDead(w)
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: dispatch gave up after %d attempts: %w", maxDispatchAttempts, lastErr)
}

// runOn executes one job on one worker as a plain job-API client: submit,
// follow the event stream to the terminal state, fetch the result bytes.
// The transport carries no retry policy — a failure it would retry
// (jobclient.Retryable) is reported transient instead, as are the worker's
// lease ending mid-job and the worker no longer knowing the job it
// accepted (restarted without a journal); the job re-dispatches, and the
// abandoned worker's own copy is harmless — if it finishes anyway it
// publishes the same content-addressed plan. A job that ended failed or
// canceled is the job's outcome, not the worker's fault: permanent.
func (c *Coordinator) runOn(ctx context.Context, w *worker, body []byte) (res []byte, transient bool, err error) {
	// The submit runs under the worker's lease and the caller's deadline but
	// not the caller's cancellation: a submit abandoned mid-flight may still
	// have created the job, and without its ID the worker's copy could never
	// be canceled.
	sctx, cancel := w.lease, context.CancelFunc(func() {})
	if dl, ok := ctx.Deadline(); ok {
		sctx, cancel = context.WithDeadline(w.lease, dl)
	}
	id, err := w.t.Submit(sctx, body)
	cancel()
	if err != nil {
		return nil, jobclient.Retryable(err), err
	}
	// wctx ends when the caller gives up or the worker's lease does.
	wctx, stop := context.WithCancel(ctx)
	defer stop()
	defer context.AfterFunc(w.lease, stop)()
	st, err := w.t.Wait(wctx, id)
	if err == nil {
		if st.State != "done" {
			if st.Error != nil {
				return nil, false, st.Error.Err()
			}
			return nil, false, fmt.Errorf("cluster: job %s on worker %s ended %s", id, w.id, st.State)
		}
		if res, err = w.t.Result(wctx, id); err == nil {
			return res, false, nil
		}
	}
	switch {
	case ctx.Err() != nil:
		// Nobody will read this plan: stop the worker computing it.
		cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cancelGrace)
		defer cancel()
		_, _ = w.t.Cancel(cctx, id) // best effort; the propagated deadline bounds the job otherwise
		return nil, false, ctx.Err()
	case w.lease.Err() != nil:
		return nil, true, fmt.Errorf("cluster: worker %s lease expired with job %s in flight", w.id, id)
	default:
		return nil, jobclient.Retryable(err) || errors.Is(err, stubbyerr.KindNotFound), err
	}
}

// Handle mounts the cluster control plane onto a serving mux.
func (c *Coordinator) Handle(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/cluster/register", c.handleRegister)
	mux.HandleFunc("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /v1/cluster/workers", c.handleWorkers)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reg, err := planio.DecodeRegisterRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	id, ttl := c.Register(reg.URL, reg.ID)
	writeJSON(w, planio.RegisterResponse{ID: id, TTLMS: ttl.Milliseconds()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	hb, err := planio.DecodeHeartbeatRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, planio.HeartbeatResponse{OK: c.Heartbeat(hb.ID, hb.ClaimHits, hb.Computes)})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, planio.WorkersResponse{Workers: c.Workers()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
