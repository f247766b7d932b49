// Command stubbyd serves Stubby as a long-lived optimization service (the
// deployment of the paper's Figure 2): workflow generators submit
// annotated plans as versioned JSON documents over HTTP, poll or stream
// progress, and fetch optimized plans back. Plans travel structure-only —
// the server costs and rewrites them without ever seeing user code.
//
// Usage:
//
//	stubbyd -addr :8080
//	stubbyd -addr :8080 -workers 8 -queue 64 -seed 1 -drain-timeout 30s
//
// API (see stubby.Server):
//
//	POST /v1/jobs              submit an optimize-request document
//	GET  /v1/jobs/{id}         status + progress
//	GET  /v1/jobs/{id}/result  optimize-result document
//	POST /v1/jobs/{id}/cancel  cancel
//	GET  /v1/jobs/{id}/events  NDJSON event stream (?from=N resumes)
//	GET  /healthz              liveness + queue shape
//	GET  /readyz               readiness (503 while draining)
//	GET  /statsz               counters, section by section (planio.StatszDoc)
//
// With -store DIR, optimized plans are persisted to a content-addressed
// store under DIR and repeat submissions — across restarts and across
// replicas sharing the directory — are answered without re-optimizing.
//
// With -journal DIR (default: journal/ under the -store directory, when
// one is set), every accepted job is journaled durably and a restart — even
// after a hard kill — re-enqueues the jobs that were in flight, under
// their original IDs, completing them idempotently through the plan store.
//
// With -reuse-catalog DIR, optimizations consult a durable catalog of
// previously materialized sub-plan results (populated by runs that had the
// same catalog attached): catalog-matched sub-DAGs are replaced with scans
// of the stored results whenever the What-if estimate says scanning beats
// recomputing. The catalog takes one exclusive writer per directory.
//
// Submissions beyond the admission queue's depth are shed with HTTP 429
// and error kind "overloaded". On SIGTERM/SIGINT the server drains
// gracefully: new submissions get 503, running jobs finish (up to
// -drain-timeout, then they are canceled), and the process exits.
//
// # Distributed operation
//
// A -coordinator process accepts the same /v1/jobs API but dispatches each
// job to a registered worker; -worker -join URL processes register with
// the coordinator, heartbeat to hold their lease, and serve the dispatched
// jobs with their ordinary job API. A worker that stops heartbeating for
// -lease-ttl has its in-flight jobs re-dispatched; a coordinator with no
// live workers optimizes locally (failover). Point every node's -store at
// one shared directory so identical submissions cost one optimization
// cluster-wide (cross-replica single-flight) and re-dispatched jobs
// converge to byte-identical plans:
//
//	stubbyd -coordinator -addr :8080 -store /shared/plans
//	stubbyd -worker -join http://coord:8080 -addr :8081 -store /shared/plans
//	stubbyd -worker -join http://coord:8080 -addr :8082 -store /shared/plans
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/stubby-mr/stubby"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "optimization worker pool size (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", stubby.DefaultQueueDepth, "admission queue depth; beyond it submissions are shed with 429")
		seed     = flag.Int64("seed", 1, "default search seed (requests may override)")
		planner  = flag.String("optimizer", "stubby", "default planner for requests that name none")
		useCache = flag.Bool("cache", true, "share one estimate cache across all jobs")
		rrsEvals = flag.Int("rrs-evals", 0, "configuration-search budget override (0 = default; part of the plan-store key)")
		storeDir = flag.String("store", "", "persistent plan-store directory (empty = no store); replicas may share one directory")
		reuseDir = flag.String("reuse-catalog", "", "sub-plan reuse catalog directory (empty = no reuse): optimizations replace catalog-matched sub-DAGs with scans of stored results")
		reuseTTL = flag.Duration("catalog-ttl", 0, "evict reuse-catalog entries older than this at startup (0 = keep forever)")
		jdir     = flag.String("journal", "", "durable job-journal directory (empty = 'journal' under -store when set, else no journal)")
		drain    = flag.Duration("drain-timeout", 30*time.Second, "how long a graceful shutdown waits before canceling running jobs")

		robSamples = flag.Int("robustness-samples", 0, "Monte-Carlo samples for fault-aware robustness scoring of every optimized plan (0 disables)")
		faultName  = flag.String("fault-profile", "standard", "fault profile for -robustness-samples (standard, failures, stragglers)")
		faultSeed  = flag.Int64("fault-seed", 42, "base perturbation seed for -robustness-samples")

		coordinator = flag.Bool("coordinator", false, "run as cluster coordinator: dispatch jobs to -worker nodes that joined")
		workerMode  = flag.Bool("worker", false, "run as cluster worker: register with -join and serve dispatched jobs")
		join        = flag.String("join", "", "coordinator base URL a -worker joins (e.g. http://coord:8080)")
		advertise   = flag.String("advertise", "", "base URL this worker advertises to the coordinator (default derived from the listen address)")
		leaseTTL    = flag.Duration("lease-ttl", 3*time.Second, "coordinator: how long a silent worker keeps its lease; workers heartbeat at a third of it")
	)
	flag.Parse()

	if *coordinator && *workerMode {
		fmt.Fprintln(os.Stderr, "stubbyd: -coordinator and -worker are mutually exclusive")
		os.Exit(2)
	}
	if *workerMode && *join == "" {
		fmt.Fprintln(os.Stderr, "stubbyd: -worker requires -join URL")
		os.Exit(2)
	}

	opts := []stubby.SessionOption{
		stubby.WithSeed(*seed),
		stubby.WithQueueDepth(*queue),
		stubby.WithPlanner(*planner),
	}
	if *workers > 0 {
		opts = append(opts, stubby.WithParallelism(*workers))
	}
	if *useCache {
		opts = append(opts, stubby.WithEstimateCache(stubby.NewEstimateCache(0)))
	}
	if *rrsEvals > 0 {
		opts = append(opts, stubby.WithOptimizerOptions(stubby.Options{RRSEvals: *rrsEvals}))
	}
	if *robSamples > 0 {
		model, err := stubby.FaultProfile(*faultName, *faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stubbyd:", err)
			os.Exit(1)
		}
		opts = append(opts, stubby.WithRobustness(model, *robSamples))
	}
	var store *stubby.PlanStore
	if *storeDir != "" {
		var err error
		if store, err = stubby.NewPlanStore(*storeDir); err != nil {
			fmt.Fprintln(os.Stderr, "stubbyd:", err)
			os.Exit(1)
		}
		opts = append(opts, stubby.WithPlanStore(store))
	}
	var reuseCat *stubby.ReuseCatalog
	if *reuseDir != "" {
		var catOpts []stubby.ReuseCatalogOption
		if *reuseTTL > 0 {
			catOpts = append(catOpts, stubby.WithCatalogTTL(*reuseTTL))
		}
		var err error
		if reuseCat, err = stubby.NewReuseCatalog(*reuseDir, catOpts...); err != nil {
			fmt.Fprintln(os.Stderr, "stubbyd:", err)
			os.Exit(1)
		}
		opts = append(opts, stubby.WithReuseCatalog(reuseCat))
	}
	sess, err := stubby.NewSession(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stubbyd:", err)
		os.Exit(1)
	}
	journalDir := *jdir
	if journalDir == "" && *storeDir != "" {
		journalDir = filepath.Join(*storeDir, "journal")
	}
	var srvOpts []stubby.ServerOption
	var journal *stubby.Journal
	if journalDir != "" {
		if journal, err = stubby.OpenJournal(journalDir); err != nil {
			fmt.Fprintln(os.Stderr, "stubbyd:", err)
			os.Exit(1)
		}
		srvOpts = append(srvOpts, stubby.WithJournal(journal))
	}
	var coord *stubby.Coordinator
	if *coordinator {
		coord = stubby.NewCoordinator(stubby.WithClusterLeaseTTL(*leaseTTL))
		srvOpts = append(srvOpts, stubby.WithCoordinator(coord))
	}
	srv := stubby.NewServer(sess, srvOpts...)
	httpSrv := &http.Server{Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stubbyd:", err)
		os.Exit(1)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("stubbyd: serving on %s (workers=%d queue=%d planner=%s)",
		ln.Addr(), *workers, *queue, *planner)
	if coord != nil {
		log.Printf("stubbyd: coordinator: lease-ttl=%v", *leaseTTL)
	}
	if *workerMode {
		adv := *advertise
		if adv == "" {
			adv = advertiseURL(ln.Addr().String())
		}
		var agentOpts []stubby.WorkerAgentOption
		if store != nil {
			agentOpts = append(agentOpts, stubby.WithWorkerStats(func() (uint64, uint64) {
				st := store.Stats()
				return st.ClaimHits, st.Computes
			}))
		}
		agent := stubby.NewWorkerAgent(*join, adv, agentOpts...)
		go func() { _ = agent.Run(ctx) }()
		log.Printf("stubbyd: worker: joining %s as %s", *join, adv)
	}
	if journal != nil {
		st := journal.Stats()
		log.Printf("stubbyd: journal %s: %d jobs recovered", journalDir, st.Recovered)
	}

	select {
	case err := <-errc:
		log.Fatalf("stubbyd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("stubbyd: draining (timeout %v)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("stubbyd: drain: %v", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("stubbyd: shutdown: %v", err)
	}
	if store != nil {
		st := store.Stats()
		log.Printf("stubbyd: plan store: %d hits / %d misses (%.0f%% hit rate), %d computes, %d entries",
			st.Hits, st.Misses, 100*st.HitRate(), st.Computes, st.Entries)
		if err := store.Close(); err != nil {
			log.Printf("stubbyd: plan store close: %v", err)
		}
	}
	if journal != nil {
		st := journal.Stats()
		log.Printf("stubbyd: journal: %d submits, %d transitions, %d recovered, %d bytes",
			st.Submits, st.Transitions, st.Recovered, st.BytesWritten)
		if err := journal.Close(); err != nil {
			log.Printf("stubbyd: journal close: %v", err)
		}
	}
	if coord != nil {
		if st, ok := srv.ClusterStats(); ok {
			log.Printf("stubbyd: cluster: %d/%d workers live, %d dispatches, %d re-dispatches, %d failovers, %d single-flight hits",
				st.LiveWorkers, st.Workers, st.Dispatches, st.Redispatches, st.Failovers, st.SingleFlightHits)
		}
	}
	if reuseCat != nil {
		st := reuseCat.Stats()
		log.Printf("stubbyd: reuse catalog: %d entries, %d hits / %d misses (%.0f%% hit rate)",
			st.Entries, st.Hits, st.Misses, 100*st.HitRate())
		if err := reuseCat.Close(); err != nil {
			log.Printf("stubbyd: reuse catalog close: %v", err)
		}
	}
	log.Print("stubbyd: stopped")
}

// advertiseURL derives a dialable base URL from the listener's address: a
// wildcard host ("::", "0.0.0.0") is rewritten to loopback — the
// single-machine default; multi-host deployments set -advertise.
func advertiseURL(listen string) string {
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return "http://" + listen
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
