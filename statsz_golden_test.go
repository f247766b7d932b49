package stubby_test

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/stubby-mr/stubby"
)

// statsGoldenUpdateGuard refuses -update under CI, like the plan and wire
// goldens: the fixtures in testdata/wire were written by the code that
// declared every /statsz section twice, and a build that declares them once
// must serve the same bytes.
func statsGoldenUpdateGuard(t *testing.T) {
	t.Helper()
	if *update && os.Getenv("CI") != "" {
		t.Fatal("-update is forbidden in CI: regenerate the stats goldens locally and commit the diff")
	}
}

// TestStatszGolden pins the bytes of /statsz with all six sections present:
// a coordinator server carrying an estimate cache, a plan store, a reuse
// catalog and a journal, with one registered worker. The counters are
// deterministic per seed: one job fails over to the local optimizer before
// the worker registers (so the cache, store, catalog and journal sections
// count something), then one miss and one hit go through the worker, then
// the first job is answered from the coordinator's own store.
func TestStatszGolden(t *testing.T) {
	statsGoldenUpdateGuard(t)
	dir := t.TempDir()
	wl := tinyWorkload(t, "IR")

	wstore, err := stubby.NewPlanStore(filepath.Join(dir, "worker-store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wstore.Close() })
	wsess := storeSession(t, wl, wstore)
	t.Cleanup(func() { wsess.Close(context.Background()) })
	whs := httptest.NewServer(stubby.NewServer(wsess))
	t.Cleanup(whs.Close)

	store, err := stubby.NewPlanStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cat, err := stubby.NewReuseCatalog(filepath.Join(dir, "catalog"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	journal, err := stubby.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { journal.Close() })
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(1),
		stubby.WithParallelism(2), // the queue section reports the pool size
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 12}),
		stubby.WithEstimateCache(stubby.NewEstimateCache(64)),
		stubby.WithPlanStore(store),
		stubby.WithReuseCatalog(cat),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close(context.Background()) })
	// No agent: the worker is registered and heartbeaten by hand, once, so
	// the heartbeat-fed sums are fixed and the lease outlives the test.
	coord := stubby.NewCoordinator(stubby.WithClusterLeaseTTL(time.Hour))
	srv := stubby.NewServer(sess, stubby.WithJournal(journal), stubby.WithCoordinator(coord))
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	client, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}

	local := stubby.OptimizeRequest{Workflow: wl.Workflow, Cluster: wl.Cluster}
	remote := local
	remote.Seed = 2
	run := func(req stubby.OptimizeRequest) {
		t.Helper()
		if _, err := client.Optimize(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	run(local) // no workers: failover, computed here
	id, _ := coord.Register(whs.URL, "")
	if !coord.Heartbeat(id, 2, 5) {
		t.Fatal("heartbeat of a just-registered worker refused")
	}
	run(remote) // miss: dispatched, computed on the worker
	run(remote) // hit: the worker's store, relayed
	run(local)  // hit: this server's store
	// Two jobs were journaled; their watchers append Running and the
	// terminal state just after the job's own events.
	waitTransitions(t, srv, 4)

	checkGolden(t, filepath.Join("testdata", "wire", "statsz.golden"),
		indentJSON(t, getBody(t, hs.URL+"/statsz")))
}

// TestEventStatsGolden pins the bytes of the three stats-carrying event
// lines — cacheReport, storeReport, reuseReport — as one job's NDJSON
// stream carries them.
func TestEventStatsGolden(t *testing.T) {
	statsGoldenUpdateGuard(t)
	dir := t.TempDir()
	wl := tinyWorkload(t, "IR")
	store, err := stubby.NewPlanStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cat, err := stubby.NewReuseCatalog(filepath.Join(dir, "catalog"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	_, hs, client := serviceFixture(t,
		stubby.WithCluster(wl.Cluster),
		stubby.WithEstimateCache(stubby.NewEstimateCache(64)),
		stubby.WithPlanStore(store),
		stubby.WithReuseCatalog(cat),
	)
	ctx := context.Background()
	job, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var reports []string
	for _, line := range eventLines(t, hs.URL+"/v1/jobs/"+job.ID()+"/events") {
		if strings.Contains(line, `Report"`) {
			reports = append(reports, line)
		}
	}
	if len(reports) != 3 {
		t.Fatalf("stream carries %d report lines, want cacheReport, storeReport and reuseReport:\n%s",
			len(reports), strings.Join(reports, "\n"))
	}
	checkGolden(t, filepath.Join("testdata", "wire", "events-stats.golden"),
		[]byte(strings.Join(reports, "\n")+"\n"))
}
