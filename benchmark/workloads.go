package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/stubby-mr/stubby"
)

var allAbbrs = []string{"IR", "SN", "LA", "WG", "BA", "BR", "PJ", "US"}

// workloadDef fixes what one workload runs. A round is roundJobs jobs
// cycling the workload's workflows, issued by `submitters` closed-loop
// callers that each wait for their plan before asking for the next. Rounds
// repeat until the run's --seconds are used up, so per-job counters do not
// depend on how many rounds a host manages (svc-miss excepted, see jobs).
type workloadDef struct {
	name       string
	why        string
	abbrs      []string
	submitters int
	roundJobs  int
	// searches says that every job runs the optimizer; the other workloads
	// are invalid if one does. freshKeys gives every job its own search
	// seed, and with it its own plan-store key.
	searches, freshKeys bool
	// rrsEvals is the servers' -rrs-evals flag (0 = the default budget).
	// The hit workloads never search inside their window, so they populate
	// their stores under a small budget to keep set-up short; the stored
	// documents have the same structure and size either way.
	rrsEvals int
	setup    func(e *env) error
}

var workloadDefs = []*workloadDef{
	{
		name: "lib-search",
		why: "Session.Optimize on all eight paper workflows with a fresh default session: " +
			"the optimizer, what-if, rrs and trans layers do all the work, the wire and storage layers none",
		abbrs: allAbbrs, submitters: 1, roundJobs: 8, searches: true,
		setup: func(*env) error { return nil },
	},
	{
		name: "svc-miss",
		why: "2 clients submit light workflows under distinct seeds to a stubbyd with store and journal: " +
			"every job searches, is stored and journaled, so writes and the optimizer under concurrency show",
		abbrs: []string{"IR", "SN", "LA", "PJ"}, submitters: 2, roundJobs: 16, searches: true, freshKeys: true,
		setup: setupService,
	},
	{
		name: "svc-hit",
		why: "1 client resubmits the eight workflows to a populated stubbyd: every job is a memory-resident " +
			"plan-store hit, so planio, fingerprinting, the journal append and three round trips are the cost",
		abbrs: allAbbrs, submitters: 1, roundJobs: 16, rrsEvals: 20,
		setup: setupService,
	},
	{
		name: "cluster-hit",
		why: "2 clients resubmit the eight workflows through a coordinator to 2 workers sharing a populated " +
			"store: svc-hit's answers plus dispatch, status polling, leases and the second wire hop",
		abbrs: allAbbrs, submitters: 2, roundJobs: 16, rrsEvals: 20,
		setup: setupCluster,
	},
}

func findWorkload(name string) *workloadDef {
	for _, d := range workloadDefs {
		if d.name == name {
			return d
		}
	}
	return nil
}

// job is one request of the load generator.
type job struct {
	wf   int   // index into env.inputs
	seed int64 // search seed sent with the request
}

// env is one workload's live set-up: inputs, servers, stores, client.
type env struct {
	def    *workloadDef
	seed   int64
	dir    string
	inputs []*input
	// nodes[0] is the server clients talk to; cluster-hit's workers follow.
	nodes  []*node
	coord  *stubby.Coordinator
	client *stubby.Client
	httpc  *http.Client
	// stopAgents cancels the worker agents and waits for them to return.
	stopAgents func()
	// cold holds the exported plan each workflow's cold computation
	// returned during set-up; store hits must return the same bytes.
	cold map[job][]byte
	// sample holds one returned plan per workflow, for the document probes.
	sample map[string][]byte
}

// searchSeed derives the non-zero search seed of the run (zero would mean
// "server default" on the wire).
func searchSeed(seed int64) int64 { return seed<<1 | 1 }

// job builds the run's n-th request. Every workload but svc-miss sends the
// run's one search seed; svc-miss needs a distinct store key per job, which
// only the seed can give it, so there the seed advances with n.
func (e *env) job(wf, n int) job {
	j := job{wf: wf, seed: searchSeed(e.seed)}
	if e.def.freshKeys {
		j.seed = j.seed*100_000 + int64(n)
	}
	return j
}

// jobs lists round r's requests, cycling the workload's workflows. Round r
// always holds the same jobs, whatever the host's speed.
func (e *env) jobs(r int) []job {
	out := make([]job, e.def.roundJobs)
	for i := range out {
		out[i] = e.job(i%len(e.inputs), 100+r*len(out)+i)
	}
	return out
}

// warmJobs is the untimed list set-up runs so that lazy initialisation and
// cache fill are over before the first timed round: one job per workflow
// for the service workloads (numbered below every timed one), and only the
// lightest workflow on lib-search, where a job is a whole search.
func (e *env) warmJobs() []job {
	if e.client == nil {
		return []job{e.job(0, 0)}
	}
	out := make([]job, len(e.inputs))
	for i := range out {
		out[i] = e.job(i, i)
	}
	return out
}

// setUp builds the workload's inputs and environment under dir and warms
// it. Its wall time is the setup_s metric.
func setUp(def *workloadDef, seed int64, dir string) (*env, error) {
	ins, err := buildInputs(seed, def.abbrs)
	if err != nil {
		return nil, err
	}
	e := &env{def: def, seed: seed, dir: dir, inputs: ins, cold: map[job][]byte{}, sample: map[string][]byte{}}
	if err := def.setup(e); err != nil {
		e.close()
		return nil, err
	}
	warm := runJobs(context.Background(), e, e.warmJobs(), nil)
	export(warm)
	for _, r := range warm {
		if r.err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up %s: %w", e.inputs[r.wf].abbr, r.err)
		}
		e.cold[r.job] = r.plan
	}
	return e, nil
}

// close tears the environment down and waits for everything it started.
func (e *env) close() {
	if e.stopAgents != nil {
		e.stopAgents()
	}
	for _, n := range e.nodes {
		n.close()
	}
	if e.httpc != nil {
		e.httpc.CloseIdleConnections()
	}
	// The coordinator reaches its workers through the default transport.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	_ = os.RemoveAll(e.dir) // scratch state; a leftover is harmless and the caller removes the parent
}

// node is one in-process stubbyd: session, server, loopback listener.
type node struct {
	sess    *stubby.Session
	srv     *stubby.Server
	httpSrv *http.Server
	served  chan error
	url     string
	store   *stubby.PlanStore
	journal *stubby.Journal
}

// startNode configures a server the way cmd/stubbyd does with its default
// flags (plus -rrs-evals when rrsEvals is set): default workers and queue
// depth, one shared estimate cache, and, when storeDir is set, a plan store
// with a journal beside it.
func startNode(seed int64, rrsEvals int, storeDir, journalDir string, coord *stubby.Coordinator) (*node, error) {
	n := &node{}
	opts := []stubby.SessionOption{
		stubby.WithSeed(searchSeed(seed)),
		stubby.WithQueueDepth(stubby.DefaultQueueDepth),
		stubby.WithPlanner("stubby"),
		stubby.WithEstimateCache(stubby.NewEstimateCache(0)),
	}
	if rrsEvals > 0 {
		opts = append(opts, stubby.WithOptimizerOptions(stubby.Options{RRSEvals: rrsEvals}))
	}
	var err error
	if storeDir != "" {
		if n.store, err = stubby.NewPlanStore(storeDir); err != nil {
			return nil, err
		}
		opts = append(opts, stubby.WithPlanStore(n.store))
	}
	if n.sess, err = stubby.NewSession(opts...); err != nil {
		n.close()
		return nil, err
	}
	var srvOpts []stubby.ServerOption
	if journalDir != "" {
		if n.journal, err = stubby.OpenJournal(journalDir); err != nil {
			n.close()
			return nil, err
		}
		srvOpts = append(srvOpts, stubby.WithJournal(n.journal))
	}
	if coord != nil {
		srvOpts = append(srvOpts, stubby.WithCoordinator(coord))
	}
	n.srv = stubby.NewServer(n.sess, srvOpts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()
	n.httpSrv = &http.Server{Handler: n.srv}
	n.served = make(chan error, 1)
	go func() { n.served <- n.httpSrv.Serve(ln) }()
	return n, nil
}

func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if n.srv != nil {
		_ = n.srv.Drain(ctx) // teardown: jobs still running are canceled by Drain itself
	}
	if n.httpSrv != nil {
		_ = n.httpSrv.Shutdown(ctx)
		<-n.served
	}
	if n.journal != nil {
		_ = n.journal.Close()
	}
	if n.store != nil {
		_ = n.store.Close()
	}
}

func (e *env) newClient(url string) (*stubby.Client, error) {
	if e.httpc == nil {
		e.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	}
	return stubby.NewClient(url, stubby.WithHTTPClient(e.httpc))
}

// setupService starts one server configured like `stubbyd -store DIR`.
func setupService(e *env) error {
	store := filepath.Join(e.dir, "store")
	n, err := startNode(e.seed, e.def.rrsEvals, store, filepath.Join(store, "journal"), nil)
	if err != nil {
		return err
	}
	e.nodes = append(e.nodes, n)
	e.client, err = e.newClient(n.url)
	return err
}

const clusterWorkers = 2

// setupCluster starts a coordinator without a store, so that every job
// crosses Coordinator.Dispatch, and two workers that share one store
// directory, each with its own journal and a heartbeating agent at the
// default lease TTL.
func setupCluster(e *env) error {
	e.coord = stubby.NewCoordinator()
	cn, err := startNode(e.seed, e.def.rrsEvals, "", "", e.coord)
	if err != nil {
		return err
	}
	e.nodes = append(e.nodes, cn)
	ctx, cancel := context.WithCancel(context.Background())
	var agents sync.WaitGroup
	e.stopAgents = func() { cancel(); agents.Wait() }
	store := filepath.Join(e.dir, "store")
	for i := 0; i < clusterWorkers; i++ {
		wn, err := startNode(e.seed, e.def.rrsEvals, store, filepath.Join(e.dir, fmt.Sprintf("journal-w%d", i)), nil)
		if err != nil {
			return err
		}
		e.nodes = append(e.nodes, wn)
		agent := stubby.NewWorkerAgent(cn.url, wn.url, stubby.WithWorkerStats(func() (uint64, uint64) {
			st := wn.store.Stats()
			return st.ClaimHits, st.Computes
		}))
		agents.Add(1)
		go func() {
			defer agents.Done()
			_ = agent.Run(ctx) // returns only ctx's error
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if st, ok := cn.srv.ClusterStats(); ok && st.LiveWorkers >= clusterWorkers {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("workers never registered with the coordinator")
		}
	}
	e.client, err = e.newClient(cn.url)
	return err
}

// workers returns cluster-hit's worker nodes (nil elsewhere).
func (e *env) workers() []*node {
	if e.coord == nil {
		return nil
	}
	return e.nodes[1:]
}
