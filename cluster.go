package stubby

import (
	"context"
	"errors"
	"time"

	"github.com/stubby-mr/stubby/internal/cluster"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/stats"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
)

// Coordinator manages a cluster of stubbyd workers: membership (register +
// heartbeat leases), dispatching optimization jobs over the ordinary job
// wire, and re-dispatching jobs off workers whose lease expires. Mount one
// onto a Server with WithCoordinator; run workers as plain stubbyd
// processes whose WorkerAgent joins the coordinator.
type Coordinator = cluster.Coordinator

// CoordinatorOption configures a Coordinator.
type CoordinatorOption = cluster.Option

// ErrNoWorkers reports a dispatch with no live workers; a coordinator
// server handles it by optimizing locally (failover) rather than failing
// the job.
var ErrNoWorkers = cluster.ErrNoWorkers

// NewCoordinator builds a coordinator with no registered workers.
func NewCoordinator(opts ...CoordinatorOption) *Coordinator {
	return cluster.New(opts...)
}

// WithClusterLeaseTTL sets how long a silent worker keeps its lease
// (default cluster.DefaultLeaseTTL); agents heartbeat at a third of it.
func WithClusterLeaseTTL(d time.Duration) CoordinatorOption {
	return cluster.WithLeaseTTL(d)
}

// WorkerAgent is the worker-side control loop: it registers the worker's
// serving URL with a coordinator and heartbeats to keep its lease alive,
// re-registering across coordinator restarts. Run it alongside the
// worker's HTTP server.
type WorkerAgent = cluster.Agent

// WorkerAgentOption configures a WorkerAgent.
type WorkerAgentOption = cluster.AgentOption

// NewWorkerAgent builds an agent that joins the coordinator at join and
// advertises the worker's own base URL.
func NewWorkerAgent(join, advertise string, opts ...WorkerAgentOption) *WorkerAgent {
	return cluster.NewAgent(join, advertise, opts...)
}

// WithWorkerStats supplies the cumulative (cross-replica single-flight
// hits, computes) counters each heartbeat reports; the coordinator sums
// them into its cluster-wide stats.
func WithWorkerStats(fn func() (claimHits, computes uint64)) WorkerAgentOption {
	return cluster.WithAgentStats(fn)
}

// ClusterStats snapshots a coordinator's view of the cluster; see
// Server.ClusterStats.
type ClusterStats = stats.Cluster

// WithCoordinator mounts a coordinator onto the server: the cluster
// control plane (/v1/cluster/register, /v1/cluster/heartbeat,
// /v1/cluster/workers) joins the mux, submitted jobs are dispatched to
// registered workers instead of the local optimizer, and /statsz grows a
// cluster section. A coordinator with no live workers fails over to local
// optimization, so a single -coordinator process is still a complete
// service.
func WithCoordinator(c *Coordinator) ServerOption {
	return func(s *Server) {
		if c == nil {
			return
		}
		s.coordinator = c
		c.Handle(s.mux)
		s.sess.dispatch = c.Dispatch
	}
}

// ClusterStats reports the mounted coordinator's cluster counters; ok is
// false when the server has no coordinator.
func (s *Server) ClusterStats() (ClusterStats, bool) {
	if s.coordinator == nil {
		return ClusterStats{}, false
	}
	return s.coordinator.Stats(), true
}

// forwardProbe is what a server does with a key-first submission its own
// store cannot answer. A coordinator with a live worker forwards the
// document — defaults resolved, cluster explicit, so the worker derives the
// same key — as the job's one dispatch, and returns the worker's result
// document unparsed; a worker that lacks the plan too has its "plan
// required" relayed. Every other server answers "plan required" itself, and
// the submitter sends the full document down the ordinary path.
func (s *Server) forwardProbe(ctx context.Context, a admission) ([]byte, error) {
	planRequired := func() error {
		return stubbyerr.New(stubbyerr.KindNotFound, "probe", a.workflow, "",
			"plan required: no stored result for plan fingerprint %v", a.key.Plan)
	}
	if s.coordinator == nil || s.coordinator.Stats().LiveWorkers == 0 {
		return nil, planRequired()
	}
	probe, err := planio.EncodeRequest(&planio.Request{
		Planner:     a.key.Planner,
		Seed:        a.key.Seed,
		Cluster:     a.target.cluster,
		Fingerprint: a.key.Plan,
		Workflow:    a.workflow,
	})
	if err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindInvalid, "probe", a.workflow, err)
	}
	doc, err := s.coordinator.Dispatch(ctx, probe)
	if errors.Is(err, ErrNoWorkers) {
		return nil, planRequired()
	}
	return doc, err
}

// dispatchFunc routes one encoded optimize-request document to a worker
// and returns the worker's encoded result document. Session.Submit uses
// it in place of local optimization when a coordinator is mounted.
type dispatchFunc func(ctx context.Context, body []byte) ([]byte, error)

// dispatchOptimize runs one submission remotely: it encodes the request —
// always with an explicit cluster, so the worker's plan-store key matches
// the one this coordinator's own store would use — dispatches it, and
// decodes the worker's result document bound to the submitted workflow's
// stage functions.
func (s *Session) dispatchOptimize(ctx context.Context, req OptimizeRequest, name string, seed int64) (*Result, error) {
	cl := req.Cluster
	if cl == nil {
		cl = s.cluster
	}
	body, err := planio.EncodeRequest(&planio.Request{
		Planner: name,
		Seed:    seed,
		Cluster: cl,
		Plan:    req.Workflow,
	})
	if err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindInvalid, "dispatch", req.Workflow.Name, err)
	}
	data, err := s.dispatch(ctx, body)
	if err != nil {
		return nil, err
	}
	reg := planio.NewRegistry()
	reg.RegisterWorkflow(req.Workflow)
	wres, err := planio.DecodeResultBound(data, reg)
	if err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindInternal, "dispatch", req.Workflow.Name,
			errors.New("undecodable worker result: "+err.Error()))
	}
	return resultFromDoc(wres), nil
}
