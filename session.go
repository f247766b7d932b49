package stubby

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stubby-mr/stubby/internal/baselines"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/optimizer"
	"github.com/stubby-mr/stubby/internal/planstore"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/service"
	"github.com/stubby-mr/stubby/internal/stats"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/whatif"
)

// EstimateCache memoizes What-if cost estimates under canonical workflow
// fingerprints (structure + configurations + profiles + layouts, insensitive
// to job-ID renaming). It is concurrent-safe, LRU-bounded, deduplicates
// in-flight estimates, and may be shared across sessions via
// WithEstimateCache so fan-outs over repeated or overlapping workflows
// amortize estimation work. Caching is transparent: optimization returns
// byte-identical plans and equal costs with or without it.
type EstimateCache = whatif.Cache

// EstimateCacheStats snapshots an EstimateCache's hit/miss/eviction
// counters; see Session.EstimateCacheStats and CacheReportEvent.
type EstimateCacheStats = stats.Cache

// NewEstimateCache builds an estimate cache bounded to roughly capacity
// entries (<= 0 uses a default of a few thousand). Attach it to one session
// — or several, to share — with WithEstimateCache.
func NewEstimateCache(capacity int) *EstimateCache { return whatif.NewCache(capacity) }

// Observer is a callback view of the typed Event stream, kept for code
// that predates it: ObserverEvents turns an implementation into a
// func(Event), one method per event type that has one, and WithObserver
// installs that function as the session's sink. New code should switch on
// the events of OptimizeHandle.Events instead — a new event type never
// breaks a consumer, a new method here breaks every implementor.
//
// The optimizer reports each optimization unit it opens, each subplan it
// enumerates (with its post-configuration-search cost), and each time a
// subplan displaces the unit's incumbent; the execution engine reports each
// finished job. Every event carries the workflow name, so one observer can
// watch a concurrent OptimizeAll fan-out. Callbacks run synchronously on
// the optimizing/running goroutine — and concurrently across workflows
// under OptimizeAll — so implementations must be fast and concurrent-safe.
//
// Embed NopObserver to implement only the events of interest.
type Observer interface {
	// UnitStarted fires when the optimizer opens an optimization unit.
	UnitStarted(workflow, phase string, unit int, jobs []string)
	// SubplanEnumerated fires per enumerated subplan with its best cost.
	SubplanEnumerated(workflow string, unit int, desc string, cost float64)
	// BestCostImproved fires when a subplan becomes the unit's incumbent.
	BestCostImproved(workflow string, unit int, desc string, cost float64)
	// JobFinished fires after the engine completes each job of a Run.
	JobFinished(workflow, job string, start, end float64)
	// EstimateCacheReport fires after each Optimize on a session with an
	// estimate cache attached, carrying the cache's cumulative statistics
	// (shared caches accumulate across sessions and workflows).
	EstimateCacheReport(workflow string, stats EstimateCacheStats)
}

// NopObserver is an Observer that ignores every event. Embed it to
// implement a subset of the interface.
type NopObserver struct{}

// UnitStarted implements Observer.
func (NopObserver) UnitStarted(string, string, int, []string) {}

// SubplanEnumerated implements Observer.
func (NopObserver) SubplanEnumerated(string, int, string, float64) {}

// BestCostImproved implements Observer.
func (NopObserver) BestCostImproved(string, int, string, float64) {}

// JobFinished implements Observer.
func (NopObserver) JobFinished(string, string, float64, float64) {}

// EstimateCacheReport implements Observer.
func (NopObserver) EstimateCacheReport(string, EstimateCacheStats) {}

// PlannerRegistry maps planner names to constructors (see Planners for the
// built-in names). Sessions resolve WithPlanner and Session.Planner through
// their registry; RegisterPlanner extends one.
type PlannerRegistry = baselines.Registry

// PlannerSpec describes one registered planner: name, description, and
// constructor.
type PlannerSpec = baselines.Spec

// ContextPlanner is a Planner whose search can be cancelled. All built-in
// planners implement it.
type ContextPlanner = baselines.ContextPlanner

// Planners lists the built-in planner names in registration order:
// "stubby", "vertical", "horizontal", "baseline", "starfish", "ysmart",
// "mrshare".
func Planners() []string { return baselines.DefaultRegistry().Names() }

// PlannerSpecs lists the built-in planner specs (names with descriptions).
func PlannerSpecs() []PlannerSpec { return baselines.DefaultRegistry().Specs() }

// Session is the top-level entry point to Stubby as a service (the role
// the optimizer plays between workflow generators and the execution engine
// in the paper's Figure 2): it owns a cluster description, a planner
// registry, and default options, and exposes context-aware, observable
// optimization, profiling, estimation, and execution.
//
// A Session is safe for concurrent use: methods share only the immutable
// cluster and registry, and every optimization builds private search state.
// The workflows and DFS instances passed in are NOT shared-state-safe —
// Profile annotates its workflow in place and Run mutates its DFS — so
// concurrent calls must operate on distinct workflow/DFS values (as
// OptimizeAll's per-workflow fan-out does; Optimize never modifies its
// input plan).
type Session struct {
	cluster      *Cluster
	seed         int64
	plannerName  string
	parallelism  int
	fraction     float64
	baseOpts     Options
	search       uint64 // baseOpts' plan-store key digest (searchDigest)
	registry     *PlannerRegistry
	estCache     *EstimateCache
	planStore    *PlanStore
	reuseCatalog *ReuseCatalog
	robustness   *whatif.RobustnessOptions
	// events is the session's progress sink (nil = none): the search events
	// of every Optimize and Submit, the reports that follow them, and the
	// JobFinished events of every Run end here.
	events func(Event)
	// dispatch, when set (WithCoordinator), routes submitted jobs to
	// cluster workers instead of the local optimizer; ErrNoWorkers falls
	// back to optimizing locally.
	dispatch dispatchFunc
	// queueDepth bounds the Submit admission queue (WithQueueDepth;
	// DefaultQueueDepth when 0). The queue itself is created lazily on the
	// first Submit, so sessions that never Submit pay nothing.
	queueDepth int
	queueOnce  sync.Once
	queue      *service.Queue
	closed     atomic.Bool
	// Job IDs are "job-<epoch><n>": n counts the session's submissions, and
	// epoch — empty unless a journaled Server sets it — tells one
	// incarnation of a crash-safe server from the next.
	jobSeq   atomic.Uint64
	jobEpoch string
}

// SessionOption configures a Session under construction.
type SessionOption func(*Session) error

// WithCluster sets the cluster the session optimizes for (default
// DefaultCluster).
func WithCluster(c *Cluster) SessionOption {
	return func(s *Session) error {
		if c == nil {
			return fmt.Errorf("stubby: WithCluster(nil)")
		}
		s.cluster = c
		return nil
	}
}

// WithSeed fixes the seed driving deterministic search, profiling, and
// sampling.
func WithSeed(seed int64) SessionOption {
	return func(s *Session) error {
		s.seed = seed
		return nil
	}
}

// WithPlanner selects the named planner Optimize uses (default "stubby",
// the full transformation-based optimizer). The name must exist in the
// session's registry; see Planners for the built-ins.
func WithPlanner(name string) SessionOption {
	return func(s *Session) error {
		s.plannerName = name
		return nil
	}
}

// WithParallelism bounds the session's concurrency: the OptimizeAll worker
// pool, and the workers that tune each optimization unit's subplans inside
// the cost-based planners (stubby, vertical, horizontal, starfish, mrshare),
// one What-if estimator each. n <= 0 restores the default (GOMAXPROCS);
// n == 1 tunes subplans one after another. Plans, costs, search traces and
// What-if counters are identical at any parallelism.
func WithParallelism(n int) SessionOption {
	return func(s *Session) error {
		s.parallelism = n
		return nil
	}
}

// WithObserver attaches a progress observer to the session by installing
// ObserverEvents(obs) as the session's event sink: search events fire from
// Optimize and Submit under the cost-based planners (stubby, vertical,
// horizontal, starfish, mrshare), and JobFinished events fire from every
// Run. The rule-based planners run no search and report no progress.
func WithObserver(obs Observer) SessionOption {
	return func(s *Session) error {
		s.events = nil
		if obs != nil {
			s.events = ObserverEvents(obs)
		}
		return nil
	}
}

// WithProfileFraction sets the sampling fraction Profile uses, in (0, 1]
// (default 0.5). 1.0 profiles the full data (no estimation error).
func WithProfileFraction(f float64) SessionOption {
	return func(s *Session) error {
		if f <= 0 || f > 1 {
			return fmt.Errorf("stubby: profile fraction %v out of (0,1]", f)
		}
		s.fraction = f
		return nil
	}
}

// WithOptimizerOptions sets the base optimizer Options (custom
// transformations, search budgets, ablation knobs). Session-level options
// (WithSeed, WithParallelism, WithObserver) are applied on top when set.
// The fields that change the plan are part of the plan-store key, so
// sessions with different searches never serve each other's plans.
func WithOptimizerOptions(opt Options) SessionOption {
	return func(s *Session) error {
		s.baseOpts = opt
		return nil
	}
}

// WithEstimateCache attaches an estimate cache to the session: What-if
// estimates issued by the cost-based planners' searches, by
// Session.Estimate, and by the post-plan costing of the rule-based and
// registered planners are memoized under canonical workflow fingerprints. Pass
// the same cache to several sessions to share it — the cache is
// concurrent-safe, so an OptimizeAll fan-out (or many sessions) amortizes
// estimates of repeated or overlapping workflows. Caching never changes
// results: plans and costs are byte-identical with and without it.
func WithEstimateCache(c *EstimateCache) SessionOption {
	return func(s *Session) error {
		if c == nil {
			return fmt.Errorf("stubby: WithEstimateCache(nil)")
		}
		s.estCache = c
		return nil
	}
}

// WithRobustness makes every Optimize (and Submit) result carry a
// Monte-Carlo Robustness report for the plan it serves, under the given
// fault model: mean/p95/p99 makespan across `samples` perturbation seeds
// (<= 0 uses DefaultRobustnessSamples). The report is observability, not a
// selection rule: the planner never sees the model, so the chosen plan is
// the one the session picks without it, and a plan-store hit (which did no
// planning) carries no report. Evaluation replays only the scheduling
// layer over once-computed flow cards, so the overhead per optimization is
// small.
//
// Determinism contract: the report is a pure function of (plan, cluster,
// model, samples) — parallelism, caching, and repeat runs cannot change
// it. A model that cannot perturb anything (all rates zero, no node
// classes) reports a degenerate distribution.
func WithRobustness(model *FaultModel, samples int) SessionOption {
	return func(s *Session) error {
		if model == nil {
			return fmt.Errorf("stubby: WithRobustness(nil model)")
		}
		if err := model.Validate(); err != nil {
			return fmt.Errorf("stubby: %w", err)
		}
		s.robustness = &whatif.RobustnessOptions{Model: model, Samples: samples}
		return nil
	}
}

// DefaultRobustnessSamples is the Monte-Carlo sample count used when
// WithRobustness (or RobustnessOptions) leaves the count zero.
const DefaultRobustnessSamples = whatif.DefaultRobustnessSamples

// DefaultQueueDepth is the admission bound of a session's Submit queue
// when WithQueueDepth is not given.
const DefaultQueueDepth = 64

// WithQueueDepth bounds the session's Submit admission queue: at most n
// jobs wait for a worker at once, and submissions beyond that are shed
// immediately with ErrKindOverloaded instead of queueing unbounded work
// (n <= 0 restores DefaultQueueDepth). The worker pool draining the queue
// is the session's WithParallelism pool.
func WithQueueDepth(n int) SessionOption {
	return func(s *Session) error {
		if n <= 0 {
			n = DefaultQueueDepth
		}
		s.queueDepth = n
		return nil
	}
}

// NewSession builds a session from functional options. With no options it
// serves the default evaluation cluster with the full Stubby optimizer.
func NewSession(opts ...SessionOption) (*Session, error) {
	s := &Session{fraction: 0.5}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.cluster == nil {
		s.cluster = mrsim.DefaultCluster()
	}
	if err := s.cluster.Validate(); err != nil {
		return nil, fmt.Errorf("stubby: %w", err)
	}
	if s.parallelism <= 0 {
		s.parallelism = runtime.GOMAXPROCS(0)
	}
	// A private clone of the built-in registry, so RegisterPlanner never
	// leaks into other sessions.
	s.registry = baselines.DefaultRegistry().Clone()
	// Resolve the seed once so Session.Planner and Session.Optimize always
	// search with the same seed regardless of whether it arrived through
	// WithSeed or WithOptimizerOptions.
	if s.seed == 0 {
		s.seed = s.baseOpts.Seed
	}
	s.search = searchDigest(s.baseOpts)
	// The searches consult one catalog: WithOptimizerOptions', else
	// WithReuseCatalog's. The nil check matters: a nil *ReuseCatalog in the
	// interface field would be non-nil and turn the pre-pass on.
	if s.baseOpts.ReuseCatalog == nil && s.reuseCatalog != nil {
		s.baseOpts.ReuseCatalog = s.reuseCatalog
	}
	if s.plannerName != "" {
		p, err := s.registry.New(s.plannerName, s.cluster, s.seed)
		if err != nil {
			return nil, fmt.Errorf("stubby: %w", err)
		}
		// A group-restricted cost-based planner and an explicit group
		// restriction (WithOptimizerOptions) are two answers to the same
		// question; silently preferring one would mislabel the result.
		if cb, ok := p.(baselines.CostBased); ok {
			groups := s.baseOpts.Groups
			if cb.Groups != GroupAll && groups != 0 && groups != cb.Groups {
				return nil, fmt.Errorf("stubby: the Groups restriction conflicts with WithPlanner(%q); set one or the other", s.plannerName)
			}
		}
	}
	return s, nil
}

// Cluster returns the session's cluster description.
func (s *Session) Cluster() *Cluster { return s.cluster }

// Planners lists the planner names registered with this session.
func (s *Session) Planners() []string { return s.registry.Names() }

// Planner constructs the named planner bound to the session's cluster and
// seed. All built-in planners also implement ContextPlanner. An
// unregistered name yields an ErrKindUnknownPlanner *Error.
func (s *Session) Planner(name string) (Planner, error) {
	return s.plannerSeeded(name, s.seed)
}

// plannerSeeded constructs the named planner with an explicit seed (Submit
// requests may override the session seed per job).
func (s *Session) plannerSeeded(name string, seed int64) (Planner, error) {
	p, err := s.registry.New(name, s.cluster, seed)
	if err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindUnknownPlanner, "planner", "", err)
	}
	return p, nil
}

// RegisterPlanner adds a planner to this session's registry (shadowing a
// built-in of the same name). It does not affect other sessions.
func (s *Session) RegisterPlanner(spec PlannerSpec) error {
	return s.registry.Register(spec)
}

// optimizerOptions merges the session's settings over the base options and
// points the search's progress at sink. A Progress function installed
// directly via WithOptimizerOptions keeps receiving events, ahead of sink.
func (s *Session) optimizerOptions(sink func(Event)) optimizer.Options {
	o := s.baseOpts
	if o.Parallelism == 0 {
		o.Parallelism = s.parallelism
	}
	if user := o.Progress; user == nil {
		o.Progress = sink
	} else if sink != nil {
		o.Progress = func(ev Event) { user(ev); sink(ev) }
	}
	if o.EstimateCache == nil {
		o.EstimateCache = s.estCache
	}
	return o
}

// EstimateCache returns the cache attached via WithEstimateCache, or nil.
func (s *Session) EstimateCache() *EstimateCache { return s.estCache }

// EstimateCacheStats snapshots the attached cache's counters. ok is false
// when the session has no estimate cache.
func (s *Session) EstimateCacheStats() (stats EstimateCacheStats, ok bool) {
	if s.estCache == nil {
		return EstimateCacheStats{}, false
	}
	return s.estCache.Stats(), true
}

// estimator builds a fresh what-if estimator, answering from the session's
// estimate cache when one is attached.
func (s *Session) estimator() *whatif.Estimator {
	return whatif.NewCached(s.cluster, s.estCache)
}

// Optimize optimizes the workflow with the session's planner (default: the
// full Stubby optimizer) and returns the result. The input plan is never
// modified; cancellation via ctx stops the search promptly with ctx.Err().
// When the selected planner is cost-based (stubby, vertical, horizontal,
// starfish, mrshare — one search over a selection of the transformation
// table) the Result carries the full per-unit search trace; for baseline,
// ysmart and registered planners it carries the plan and its What-if cost
// estimate. Failures surface as (or wrap) *Error.
func (s *Session) Optimize(ctx context.Context, w *Workflow) (*Result, error) {
	name := s.plannerName
	if name == "" {
		name = "stubby"
	}
	var fp wf.Fingerprint
	if s.planStore != nil {
		fp = wf.FingerprintWorkflow(w) // only the store key reads it
	}
	return s.optimizeAndReport(ctx, w, s.planKey(fp, name, s.seed), s.events)
}

// optimizeAndReport is the one body of an optimization, synchronous
// (Optimize, whose sink is the session's) or queued (Submit, whose sink is
// the handle's and forwards to the session's): optimize through the plan
// store when one is attached, then emit the reports that follow.
func (s *Session) optimizeAndReport(ctx context.Context, w *Workflow, key planstore.Key, sink func(Event)) (*Result, error) {
	res, err := s.optimizeNamed(ctx, w, key, sink)
	if err != nil {
		return nil, stubbyerr.From("optimize", w.Name, err)
	}
	s.report(w.Name, res, sink)
	return res, nil
}

// report emits the reports that follow an optimization into sink, each only
// when the session has the matching attachment, in the event stream's
// order: estimate cache, plan store, robustness, reuse catalog.
func (s *Session) report(workflow string, res *Result, sink func(Event)) {
	if sink == nil {
		return
	}
	if s.estCache != nil {
		sink(CacheReportEvent{Workflow: workflow, Stats: s.estCache.Stats()})
	}
	if s.planStore != nil {
		sink(PlanStoreEvent{Workflow: workflow, Hit: res.FromStore, Stats: s.planStore.Stats()})
	}
	if res.Robustness != nil {
		sink(RobustnessEvent{Workflow: workflow, Report: res.Robustness})
	}
	if s.reuseCatalog != nil {
		sink(ReuseReportEvent{Workflow: workflow, Reused: res.ReusedSubplans,
			Stats: s.reuseCatalog.Stats()})
	}
}

// optimizeDirect is the planner dispatch behind optimizeNamed (which
// fronts it with the plan store when one is attached): run the named
// planner, then, under WithRobustness, attach the robustness report of the
// plan it chose. The report is the one thing WithRobustness changes: no
// planner sees the fault model.
func (s *Session) optimizeDirect(ctx context.Context, w *Workflow, name string, seed int64, sink func(Event)) (*Result, error) {
	res, err := s.runPlanner(ctx, w, name, seed, sink)
	if err != nil || s.robustness == nil {
		return res, err
	}
	if res.Robustness, err = whatif.New(s.cluster).Robustness(ctx, res.Plan, *s.robustness); err != nil {
		return nil, err
	}
	return res, nil
}

// runPlanner runs the named planner with an explicit seed; cost-based
// planners report their search progress into sink.
func (s *Session) runPlanner(ctx context.Context, w *Workflow, name string, seed int64, sink func(Event)) (*Result, error) {
	p, err := s.plannerSeeded(name, seed)
	if err != nil {
		return nil, err
	}
	// Cost-based planners search under the session's options, so the Result
	// keeps its search trace and the sink sees per-unit progress.
	if cb, ok := p.(baselines.CostBased); ok {
		return cb.Search(ctx, w, s.optimizerOptions(sink))
	}
	start := time.Now()
	var plan *Workflow
	if cp, ok := p.(ContextPlanner); ok {
		plan, err = cp.PlanContext(ctx, w)
	} else {
		plan, err = p.Plan(w)
	}
	if err != nil {
		return nil, err
	}
	costEst := s.estimator()
	est, err := costEst.EstimateContext(ctx, plan)
	if err != nil {
		return nil, err
	}
	counts := costEst.Counts()
	return &Result{Plan: plan, EstimatedCost: est.Makespan, Duration: time.Since(start),
		WhatIfCalls: counts.Requests, WhatIfComputed: counts.Computed, FlowCards: counts.FlowCards}, nil
}

// OptimizeAll optimizes independent workflows concurrently on a worker
// pool bounded by WithParallelism, returning one Result per workflow in
// input order. On the first failure the context handed to the remaining
// work is cancelled and the first error (by input order) is returned
// alongside the results completed so far; cancelled slots are nil.
func (s *Session) OptimizeAll(ctx context.Context, ws ...*Workflow) ([]*Result, error) {
	results := make([]*Result, len(ws))
	errs := make([]error, len(ws))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := s.parallelism
	if workers > len(ws) {
		workers = len(ws)
	}
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *Workflow) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = s.Optimize(ctx, w)
			if errs[i] != nil {
				cancel()
			}
		}(i, w)
	}
	wg.Wait()
	// Prefer the error that triggered the internal cancellation over the
	// context.Canceled it induced in sibling slots, so callers see the
	// real failure; order ties break by input order.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return results, err
		}
		if first == nil {
			first = err
		}
	}
	return results, first
}

// Run executes the workflow on the session's cluster over the DFS,
// materializing outputs and returning simulated timings. Cancellation via
// ctx stops the simulation between task scheduling waves with ctx.Err();
// the workflow itself is never modified (outputs of already-finished jobs
// remain on the DFS).
func (s *Session) Run(ctx context.Context, dfs *DFS, w *Workflow) (*RunReport, error) {
	eng := mrsim.NewEngine(s.cluster, dfs)
	if sink := s.events; sink != nil {
		eng.JobFinished = func(r *mrsim.JobReport) {
			sink(JobFinishedEvent{Workflow: w.Name, Job: r.JobID, Start: r.Start, End: r.End})
		}
	}
	rep, err := eng.RunWorkflowContext(ctx, w)
	if err != nil {
		return nil, stubbyerr.From("run", w.Name, err)
	}
	if s.reuseCatalog != nil {
		// A publish failure is absorbed into the catalog's Errors counter: a
		// full disk must not fail a run that already succeeded.
		_ = s.reuseCatalog.PublishRun(w, dfs)
	}
	return rep, nil
}

// Profile attaches profile annotations to every job of w (in place) by
// executing it over a deterministic sample of the base data on dfs, using
// the session's profile fraction and seed. A cancelled profiling run
// returns ctx.Err() and leaves w unannotated.
func (s *Session) Profile(ctx context.Context, w *Workflow, dfs *DFS) error {
	err := profile.NewProfiler(s.cluster, s.fraction, s.seed).AnnotateContext(ctx, w, dfs)
	return stubbyerr.From("profile", w.Name, err)
}

// Estimate runs the What-if engine on an annotated plan, consulting the
// session's estimate cache when one is attached. Cancellation via ctx
// stops estimation between per-job flow computations with a
// ErrKindCanceled/ErrKindDeadline *Error. Cached estimates are shared;
// treat the result as immutable.
func (s *Session) Estimate(ctx context.Context, w *Workflow) (*Estimate, error) {
	est, err := s.estimator().EstimateContext(ctx, w)
	if err != nil {
		return nil, stubbyerr.From("estimate", w.Name, err)
	}
	return est, nil
}

// Robustness Monte-Carlo-replays an annotated plan's scheduling under a
// fault model, returning its makespan distribution (mean/p50/p95/p99)
// across perturbation seeds. A zero-valued opt uses the model and sample
// count from WithRobustness; opt.Model overrides it per call. Plans in
// the fallback (#jobs) costing regime have no cost-based schedule to
// perturb — an ErrKindInvalid *Error is returned.
func (s *Session) Robustness(ctx context.Context, w *Workflow, opt RobustnessOptions) (*Robustness, error) {
	if opt.Model == nil {
		if s.robustness == nil {
			return nil, &stubbyerr.Error{Kind: stubbyerr.KindInvalid, Op: "robustness", Workflow: w.Name,
				Err: errors.New("no fault model: pass RobustnessOptions.Model or configure WithRobustness")}
		}
		if opt.Samples == 0 {
			opt.Samples = s.robustness.Samples
		}
		opt.Model = s.robustness.Model
	}
	rob, err := whatif.New(s.cluster).Robustness(ctx, w, opt)
	if err != nil {
		return nil, stubbyerr.From("robustness", w.Name, err)
	}
	if rob == nil {
		return nil, &stubbyerr.Error{Kind: stubbyerr.KindInvalid, Op: "robustness", Workflow: w.Name,
			Err: errors.New("plan lacks the annotations for cost-based estimation (fallback regime)")}
	}
	return rob, nil
}
