package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"github.com/stubby-mr/stubby/internal/jobclient"
	"github.com/stubby-mr/stubby/internal/planio"
)

// registerRetryInterval paces registration attempts while the coordinator
// is unreachable (not started yet, restarting, partitioned).
const registerRetryInterval = 200 * time.Millisecond

// Agent is the worker-side half of the control plane: it registers a
// worker's serving URL with a coordinator and keeps the worker's lease
// alive by heartbeating, re-registering whenever the coordinator stops
// recognizing it (coordinator restart, missed heartbeats, a transient
// partition that got the worker marked dead).
type Agent struct {
	coord     *jobclient.Transport // no retry policy: register and beat pace their own retries
	advertise string
	stats     func() (claimHits, computes uint64)

	mu  sync.Mutex
	id  string
	ttl time.Duration
}

// AgentOption configures an Agent.
type AgentOption func(*Agent)

// WithAgentStats supplies the store counters each heartbeat reports: the
// worker's cumulative cross-replica single-flight hits and computes. The
// coordinator sums them into its cluster stats.
func WithAgentStats(fn func() (claimHits, computes uint64)) AgentOption {
	return func(a *Agent) { a.stats = fn }
}

// NewAgent builds an agent that joins the coordinator at join (base URL)
// and advertises the worker's own serving base URL.
func NewAgent(join, advertise string, opts ...AgentOption) *Agent {
	a := &Agent{coord: jobclient.New(join), advertise: advertise}
	for _, o := range opts {
		o(a)
	}
	return a
}

// ID returns the coordinator-assigned worker ID ("" before the first
// successful registration).
func (a *Agent) ID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.id
}

// Run registers and then heartbeats until ctx ends, re-registering
// whenever the coordinator rejects a heartbeat. It only returns with
// ctx's error.
func (a *Agent) Run(ctx context.Context) error {
	for {
		if err := a.register(ctx); err != nil {
			return err
		}
		if err := a.beat(ctx); err != nil {
			return err
		}
		// beat returned without a ctx error: the coordinator no longer
		// recognizes us — loop back into registration.
	}
}

// register loops until one registration succeeds or ctx ends. An existing
// ID is re-announced so the worker keeps its identity across coordinator
// restarts.
func (a *Agent) register(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		body, err := planio.EncodeRegisterRequest(&planio.RegisterRequest{URL: a.advertise, ID: a.ID()})
		if err != nil {
			return err
		}
		var resp planio.RegisterResponse
		if err := a.coord.JSON(ctx, "register", http.MethodPost, "/v1/cluster/register", body, &resp); err == nil && resp.ID != "" {
			a.mu.Lock()
			a.id = resp.ID
			a.ttl = time.Duration(resp.TTLMS) * time.Millisecond
			a.mu.Unlock()
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(registerRetryInterval):
		}
	}
}

// beat heartbeats at a third of the lease TTL. It returns nil when the
// coordinator rejects the heartbeat (re-register) and ctx.Err() when the
// context ends. Send failures are retried on the next tick — the lease
// tolerates two missed beats.
func (a *Agent) beat(ctx context.Context) error {
	a.mu.Lock()
	ttl := a.ttl
	a.mu.Unlock()
	interval := ttl / 3
	if interval <= 0 {
		interval = DefaultLeaseTTL / 3
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		hb := &planio.HeartbeatRequest{ID: a.ID()}
		if a.stats != nil {
			hb.ClaimHits, hb.Computes = a.stats()
		}
		body, err := planio.EncodeHeartbeatRequest(hb)
		if err != nil {
			return err
		}
		var resp planio.HeartbeatResponse
		if err := a.coord.JSON(ctx, "heartbeat", http.MethodPost, "/v1/cluster/heartbeat", body, &resp); err != nil {
			continue // transient; the lease survives a missed beat
		}
		if !resp.OK {
			return nil // unknown to the coordinator: re-register
		}
	}
}
