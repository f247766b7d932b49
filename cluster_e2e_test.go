package stubby_test

// cluster_e2e_test.go drills the distributed service end to end with
// in-process nodes: a coordinator Server (WithCoordinator) fronting
// worker Servers that registered through WorkerAgents, all replicas of
// one shared plan-store directory. The drills prove the ISSUE-10
// contract — dispatch transparency (a cluster answer is byte-identical
// to a local one), cluster-wide single-flight (N concurrent submissions
// of one workflow cost exactly one optimization across every replica),
// failover to local optimization when no worker holds a lease, and
// lease-expiry re-dispatch with the dead worker's journal replayed.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/stubby-mr/stubby"
)

// waitForCluster polls cond every 10ms for up to 5s.
func waitForCluster(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// workerNode is one in-process worker: a session (usually holding a
// replica of the shared plan store) served over HTTP, with an agent
// heartbeating its URL to the coordinator. stopAgent silences the
// heartbeats without stopping the server — the in-process stand-in for
// a worker whose process died.
type workerNode struct {
	store     *stubby.PlanStore
	sess      *stubby.Session
	hs        *httptest.Server
	stopAgent context.CancelFunc
}

// startWorker builds a worker over a fresh replica of the plan store in
// storeDir and joins it to the coordinator at coordURL.
func startWorker(t *testing.T, wl *stubby.Workload, storeDir, coordURL string) *workerNode {
	t.Helper()
	store, err := stubby.NewPlanStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	sess := storeSession(t, wl, store)
	t.Cleanup(func() { sess.Close(context.Background()) })
	hs := httptest.NewServer(stubby.NewServer(sess))
	t.Cleanup(hs.Close)
	actx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	agent := stubby.NewWorkerAgent(coordURL, hs.URL, stubby.WithWorkerStats(func() (uint64, uint64) {
		st := store.Stats()
		return st.ClaimHits, st.Computes
	}))
	go agent.Run(actx)
	return &workerNode{store: store, sess: sess, hs: hs, stopAgent: cancel}
}

// startCoordinator builds a coordinator-mode server over wl's cluster
// (the local session is the failover path) and returns it with a client
// pointed at it.
func startCoordinator(t *testing.T, wl *stubby.Workload, opts ...stubby.CoordinatorOption) (*httptest.Server, *stubby.Client, *stubby.Session) {
	t.Helper()
	coord := stubby.NewCoordinator(opts...)
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(1),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 12}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close(context.Background()) })
	hs := httptest.NewServer(stubby.NewServer(sess, stubby.WithCoordinator(coord)))
	t.Cleanup(hs.Close)
	c, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return hs, c, sess
}

// clusterStats fetches /statsz and requires a cluster section.
func clusterStats(t *testing.T, c *stubby.Client) stubby.ClusterStats {
	t.Helper()
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil {
		t.Fatal("statsz has no cluster section on a coordinator server")
	}
	return *st.Cluster
}

// waitLive blocks until the coordinator reports n live workers.
func waitLive(t *testing.T, c *stubby.Client, n int) {
	t.Helper()
	waitForCluster(t, fmt.Sprintf("%d live workers", n), func() bool {
		st, err := c.Stats(context.Background())
		return err == nil && st.Cluster != nil && st.Cluster.LiveWorkers >= n
	})
}

// TestClusterDispatch is the transparency drill: a submission through a
// coordinator with two registered workers is optimized on a worker (one
// dispatch, no failover) and returns exactly the plan a plain local
// session computes.
func TestClusterDispatch(t *testing.T) {
	wl := profiledWorkload(t, "IR", 0.1, 1)
	dir := t.TempDir()
	hs, client, _ := startCoordinator(t, wl)
	w1 := startWorker(t, wl, dir, hs.URL)
	w2 := startWorker(t, wl, dir, hs.URL)
	waitLive(t, client, 2)

	ctx := context.Background()
	got, err := client.Optimize(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}

	control, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(1),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 12}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close(ctx)
	want, err := control.Optimize(ctx, wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	if fpOf(t, got.Plan) != fpOf(t, want.Plan) {
		t.Fatal("dispatched plan differs from local plan")
	}
	if got.EstimatedCost != want.EstimatedCost {
		t.Fatalf("dispatched cost %v != local cost %v", got.EstimatedCost, want.EstimatedCost)
	}

	st := clusterStats(t, client)
	if st.Dispatches == 0 || st.Failovers != 0 {
		t.Fatalf("dispatches=%d failovers=%d, want dispatched with no failover", st.Dispatches, st.Failovers)
	}
	if n := w1.store.Stats().Computes + w2.store.Stats().Computes; n != 1 {
		t.Fatalf("worker computes = %d, want exactly 1", n)
	}
}

// TestClusterSingleFlight is the headline acceptance drill: 8 clients
// submitting one workflow concurrently through a coordinator with 2
// worker replicas of one plan-store directory cost the cluster exactly
// one optimization, and every client gets a byte-identical plan.
func TestClusterSingleFlight(t *testing.T) {
	wl := profiledWorkload(t, "BR", 0.1, 1)
	dir := t.TempDir()
	hs, client, _ := startCoordinator(t, wl)
	w1 := startWorker(t, wl, dir, hs.URL)
	w2 := startWorker(t, wl, dir, hs.URL)
	waitLive(t, client, 2)

	const clients = 8
	ctx := context.Background()
	plans := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := stubby.NewClient(hs.URL)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := c.Optimize(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
			if err != nil {
				errs[i] = err
				return
			}
			plans[i] = exportBytes(t, res.Plan)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(plans[i], plans[0]) {
			t.Fatalf("client %d plan differs from client 0", i)
		}
	}

	if n := w1.store.Stats().Computes + w2.store.Stats().Computes; n != 1 {
		t.Fatalf("cluster-wide computes = %d, want exactly 1 for %d concurrent submissions", n, clients)
	}
	st := clusterStats(t, client)
	if st.Dispatches != clients {
		t.Fatalf("dispatches = %d, want %d (one per submission)", st.Dispatches, clients)
	}
	if st.Failovers != 0 {
		t.Fatalf("failovers = %d, want 0", st.Failovers)
	}
	// Heartbeats eventually carry the workers' compute counters to the
	// coordinator's cluster-wide view.
	waitForCluster(t, "heartbeat-reported computes", func() bool {
		return clusterStats(t, client).Computes == 1
	})
}

// TestClusterFailoverLocal proves a coordinator with no live workers is
// still a complete service: the submission runs on the coordinator's own
// session and the failover is counted.
func TestClusterFailoverLocal(t *testing.T) {
	wl := profiledWorkload(t, "LA", 0.1, 1)
	_, client, _ := startCoordinator(t, wl)

	ctx := context.Background()
	got, err := client.Optimize(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}
	control, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(1),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 12}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close(ctx)
	want, err := control.Optimize(ctx, wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	if fpOf(t, got.Plan) != fpOf(t, want.Plan) {
		t.Fatal("failover plan differs from local plan")
	}
	st := clusterStats(t, client)
	if st.Failovers == 0 {
		t.Fatalf("failovers = 0, want at least 1 (no workers registered)")
	}
	if st.LiveWorkers != 0 || st.Workers != 0 {
		t.Fatalf("workers=%d live=%d, want an empty cluster", st.Workers, st.LiveWorkers)
	}
}

// passthroughPlanner answers immediately with the input workflow under
// the same registry name as the test blocking planner, so a re-dispatch
// of a parked job can complete on another worker.
type passthroughPlanner struct{}

func (passthroughPlanner) Name() string { return "blocking" }

func (passthroughPlanner) Plan(w *stubby.Workflow) (*stubby.Workflow, error) { return w, nil }

// registerPassthrough registers the immediately-completing "blocking"
// planner on sess.
func registerPassthrough(t *testing.T, sess *stubby.Session) {
	t.Helper()
	err := sess.RegisterPlanner(stubby.PlannerSpec{
		Name:        "blocking",
		Description: "completes immediately (test instrument)",
		New: func(c *stubby.Cluster, seed int64) stubby.Planner {
			return passthroughPlanner{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClusterLeaseExpiryRedispatch is the failover drill: worker A takes
// the first dispatch and parks mid-optimization, its heartbeats stop,
// the coordinator expires A's lease and re-dispatches the job to worker
// B, and the client's submission completes through B without ever seeing
// the failure. Afterwards A's journal — which still holds the abandoned
// job's submit record — is replayed by a restarted node sharing B's plan
// store, and the recovered job converges idempotently through a store
// hit instead of a second optimization.
func TestClusterLeaseExpiryRedispatch(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	dir := t.TempDir()
	jdirA := t.TempDir()
	hs, client, coordSess := startCoordinator(t, wl, stubby.WithClusterLeaseTTL(400*time.Millisecond))
	// Submission validation resolves the planner name on the coordinator
	// before dispatching, so the coordinator's session must know
	// "blocking" too. Its local variant completing a job would show up as
	// Redispatches == 0 below, keeping a failover distinguishable.
	registerPassthrough(t, coordSess)
	ctx := context.Background()

	// Worker A: a blocking "blocking" planner and a journal, no plan
	// store. (A subprocess worker killed mid-compute would drop its store
	// claim with its flock — see TestClusterWorkerCrashDrill; an
	// in-process stand-in cannot release a flock without dying, so A runs
	// storeless and the claim discipline is drilled in the planstore
	// suites.)
	sessA, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	startedA, releaseA := registerBlocking(t, sessA)
	defer close(releaseA)
	t.Cleanup(func() { sessA.Close(context.Background()) })
	journalA, err := stubby.OpenJournal(jdirA)
	if err != nil {
		t.Fatal(err)
	}
	srvA := httptest.NewServer(stubby.NewServer(sessA, stubby.WithJournal(journalA)))
	t.Cleanup(srvA.Close)
	actxA, cancelA := context.WithCancel(ctx)
	t.Cleanup(cancelA)
	go stubby.NewWorkerAgent(hs.URL, srvA.URL).Run(actxA)
	waitLive(t, client, 1) // A registers first and wins the id tiebreak

	// Worker B: a shared-store replica whose "blocking" planner completes
	// immediately.
	storeB, err := stubby.NewPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { storeB.Close() })
	sessB := storeSession(t, wl, storeB)
	registerPassthrough(t, sessB)
	t.Cleanup(func() { sessB.Close(context.Background()) })
	srvB := httptest.NewServer(stubby.NewServer(sessB))
	t.Cleanup(srvB.Close)
	actxB, cancelB := context.WithCancel(ctx)
	t.Cleanup(cancelB)
	go stubby.NewWorkerAgent(hs.URL, srvB.URL).Run(actxB)
	waitLive(t, client, 2)

	type outcome struct {
		res *stubby.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := client.Optimize(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking"})
		done <- outcome{res, err}
	}()

	// A starts planning and parks; then its heartbeats stop and the lease
	// lapses.
	select {
	case <-startedA:
	case <-time.After(5 * time.Second):
		t.Fatal("worker A never started the dispatched job")
	}
	cancelA()

	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("submission did not survive the lease expiry: %v", out.err)
		}
		if out.res == nil || out.res.Plan == nil {
			t.Fatal("empty result after re-dispatch")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("submission never completed after worker A went silent")
	}
	st := clusterStats(t, client)
	if st.Redispatches == 0 {
		t.Fatalf("redispatches = 0, want at least 1")
	}
	if n := storeB.Stats().Computes; n != 1 {
		t.Fatalf("worker B computes = %d, want 1", n)
	}

	// "Restart" A over its journal: the abandoned job's submit record is
	// still there (no terminal state was ever appended), so a fresh
	// journaled server re-enqueues it under the original ID, and — as a
	// replica of the shared store — completes it with a store hit rather
	// than a second optimization.
	if err := journalA.Close(); err != nil {
		t.Fatal(err)
	}
	storeR, err := stubby.NewPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { storeR.Close() })
	sessR := storeSession(t, wl, storeR)
	registerPassthrough(t, sessR)
	t.Cleanup(func() { sessR.Close(context.Background()) })
	journalR, err := stubby.OpenJournal(jdirA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journalR.Close() })
	_ = stubby.NewServer(sessR, stubby.WithJournal(journalR))
	if got := journalR.Stats().Recovered; got != 1 {
		t.Fatalf("recovered jobs = %d, want 1 (the job abandoned on A)", got)
	}
	waitForCluster(t, "recovered job to converge through the store", func() bool {
		return storeR.Stats().Hits >= 1
	})
	if n := storeB.Stats().Computes + storeR.Stats().Computes; n != 1 {
		t.Fatalf("total computes after journal replay = %d, want 1 (idempotent recovery)", n)
	}
}

// TestClusterCancelPropagates is the cancel drill: a client cancels its
// job on the coordinator while a worker is optimizing it, and the
// worker's own copy of the job reaches canceled too — the coordinator
// forwards the cancel instead of abandoning a computation nobody will
// read — with no re-dispatch of the canceled job.
func TestClusterCancelPropagates(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	dir := t.TempDir()
	hs, client, coordSess := startCoordinator(t, wl)
	registerPassthrough(t, coordSess) // submission validation resolves "blocking" here too
	w1 := startWorker(t, wl, dir, hs.URL)
	w2 := startWorker(t, wl, dir, hs.URL)
	started1, release1 := registerBlocking(t, w1.sess)
	defer close(release1)
	started2, release2 := registerBlocking(t, w2.sess)
	defer close(release2)
	waitLive(t, client, 2)

	ctx := context.Background()
	job, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking"})
	if err != nil {
		t.Fatal(err)
	}
	var worker *workerNode
	select {
	case <-started1:
		worker = w1
	case <-started2:
		worker = w2
	case <-time.After(5 * time.Second):
		t.Fatal("no worker started the dispatched job")
	}
	if _, err := job.Cancel(ctx); err != nil {
		t.Fatalf("cancel on the coordinator: %v", err)
	}
	if _, err := job.Wait(ctx); !errors.Is(err, stubby.ErrKindCanceled) {
		t.Fatalf("coordinator job ended with %v, want canceled", err)
	}
	// The worker's copy is its first job.
	direct, err := stubby.NewClient(worker.hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	waitForCluster(t, "the worker's copy to reach canceled", func() bool {
		st, err := direct.Job("job-1").Status(ctx)
		return err == nil && st.State() == stubby.StateCanceled
	})
	if st := clusterStats(t, client); st.Dispatches != 1 || st.Redispatches != 0 || st.LiveWorkers != 2 {
		t.Fatalf("cluster after cancel = %+v, want one dispatch, no re-dispatch, both workers live", st)
	}
}

// TestClusterWorkerCrashDrill is the multi-node smoke drill over real
// processes: a stubbyd coordinator fronting two stubbyd workers that
// share one plan-store directory, with one worker SIGKILLed mid-batch.
// Every submission must converge to a plan fingerprint-identical to a
// fault-free single-node run's, and the killed worker — restarted over
// its journal and the shared store — must recover its abandoned jobs
// idempotently instead of re-optimizing the batch.
func TestClusterWorkerCrashDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess cluster drill skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "stubbyd")
	build := exec.Command("go", "build", "-o", bin, "github.com/stubby-mr/stubby/cmd/stubbyd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building stubbyd: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	abbrs := []string{"IR", "BR", "LA"}

	// Fault-free reference plans from a plain single-node stubbyd.
	ref := startStubbyd(t, bin, "-addr", "127.0.0.1:0", "-workers", "2",
		"-seed", "1", "-rrs-evals", "16", "-store", filepath.Join(t.TempDir(), "store"))
	refClient, err := stubby.NewClient("http://" + ref.addr)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, abbr := range abbrs {
		wl := tinyWorkload(t, abbr)
		res, rerr := refClient.Optimize(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Cluster: wl.Cluster})
		if rerr != nil {
			t.Fatalf("reference %s: %v", abbr, rerr)
		}
		want[abbr] = fpOf(t, res.Plan)
	}
	ref.kill()

	// The cluster: coordinator + two workers over one store directory,
	// each worker with its own journal.
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	coord := startStubbyd(t, bin, "-addr", "127.0.0.1:0", "-coordinator",
		"-workers", "2", "-seed", "1", "-rrs-evals", "16")
	defer coord.kill()
	workerArgs := func(i int) []string {
		return []string{"-addr", "127.0.0.1:0", "-worker", "-join", "http://" + coord.addr,
			"-store", storeDir, "-journal", filepath.Join(dir, fmt.Sprintf("journal%d", i)),
			"-workers", "2", "-seed", "1", "-rrs-evals", "16"}
	}
	w1 := startStubbyd(t, bin, workerArgs(1)...)
	w2 := startStubbyd(t, bin, workerArgs(2)...)
	defer w2.kill()
	client, err := stubby.NewClient("http://" + coord.addr)
	if err != nil {
		t.Fatal(err)
	}
	waitForCluster(t, "2 live subprocess workers", func() bool {
		st, serr := client.Stats(ctx)
		return serr == nil && st.Cluster != nil && st.Cluster.LiveWorkers >= 2
	})

	const perWorkload = 2
	results := make(chan drillResult, len(abbrs)*perWorkload)
	var wg sync.WaitGroup
	for i := 0; i < len(abbrs)*perWorkload; i++ {
		abbr := abbrs[i%len(abbrs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			wl := tinyWorkload(t, abbr)
			res, oerr := client.Optimize(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Cluster: wl.Cluster})
			if oerr != nil {
				results <- drillResult{workload: abbr, err: oerr}
				return
			}
			results <- drillResult{workload: abbr, fp: fpOf(t, res.Plan)}
		}()
	}

	// SIGKILL worker 1 mid-batch; the coordinator re-dispatches its
	// leased jobs to worker 2 (or, in a live-worker gap, fails over to
	// its own optimizer — either way the plans cannot differ).
	time.Sleep(100 * time.Millisecond)
	w1.kill()

	wg.Wait()
	close(results)
	for r := range results {
		if r.err != nil {
			t.Fatalf("submission %s failed through the worker kill: %v", r.workload, r.err)
		}
		if r.fp != want[r.workload] {
			t.Fatalf("workload %s: cluster plan %s != fault-free plan %s", r.workload, r.fp, want[r.workload])
		}
	}

	// Restart the killed worker over its journal and the shared store:
	// recovered jobs must drain through store hits, not a re-optimized
	// batch.
	w1r := startStubbyd(t, bin, workerArgs(1)...)
	defer w1r.kill()
	direct, err := stubby.NewClient("http://" + w1r.addr)
	if err != nil {
		t.Fatal(err)
	}
	var last *stubby.ServiceStats
	waitForCluster(t, "journal recovery to drain", func() bool {
		st, serr := direct.Stats(ctx)
		if serr != nil || st.Journal == nil || st.PlanStore == nil {
			return false
		}
		last = st
		return st.PlanStore.Hits+st.PlanStore.Computes >= uint64(st.Journal.Recovered)
	})
	if last.PlanStore.Computes > uint64(len(abbrs)) {
		t.Fatalf("restarted worker re-ran %d optimizations, want <= %d distinct workloads",
			last.PlanStore.Computes, len(abbrs))
	}
}
