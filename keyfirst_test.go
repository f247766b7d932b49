package stubby_test

// keyfirst_test.go covers key-first submission end to end: a client names
// its plan by fingerprint before shipping it, a server that holds the
// answer serves the stored bytes as they are — no decode, no re-encode, no
// journal write — and everything else falls back to the full document.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/planstore"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/whatif"
)

// wireLog records the requests a server saw as "METHOD path", with the
// body length of each.
type wireLog struct {
	next http.Handler
	mu   sync.Mutex
	reqs []string
	lens []int64
}

func (l *wireLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	l.reqs = append(l.reqs, r.Method+" "+r.URL.Path)
	l.lens = append(l.lens, r.ContentLength)
	l.mu.Unlock()
	l.next.ServeHTTP(w, r)
}

// take returns what was recorded since the last call.
func (l *wireLog) take() (reqs []string, lens []int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	reqs, lens = l.reqs, l.lens
	l.reqs, l.lens = nil, nil
	return reqs, lens
}

// storeServer is an in-process `stubbyd -store DIR`: plan store, journal,
// recorded listener.
type storeServer struct {
	store   *stubby.PlanStore
	journal *stubby.Journal
	sess    *stubby.Session
	srv     *stubby.Server
	log     *wireLog
	hs      *httptest.Server
	client  *stubby.Client
}

func newStoreServer(t *testing.T, dir string) *storeServer {
	t.Helper()
	f := &storeServer{}
	var err error
	if f.store, err = stubby.NewPlanStore(filepath.Join(dir, "store")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.store.Close() })
	if f.journal, err = stubby.OpenJournal(filepath.Join(dir, "journal")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.journal.Close() })
	f.sess, err = stubby.NewSession(stubby.WithSeed(1),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 12}), stubby.WithPlanStore(f.store))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.sess.Close(context.Background()) })
	f.srv = stubby.NewServer(f.sess, stubby.WithJournal(f.journal))
	f.log = &wireLog{next: f.srv}
	f.hs = httptest.NewServer(f.log)
	t.Cleanup(f.hs.Close)
	if f.client, err = stubby.NewClient(f.hs.URL); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *storeServer) journalStats(t *testing.T) stubby.JournalStats {
	t.Helper()
	st, ok := f.srv.JournalStats()
	if !ok {
		t.Fatal("server reports no journal")
	}
	return st
}

// waitTransitions blocks until the journal has recorded n lifecycle
// transitions: the watcher appends them just after the job's own events, so
// a test that compares journal counters lets it catch up first.
func waitTransitions(t *testing.T, srv *stubby.Server, n uint64) {
	t.Helper()
	waitForCluster(t, fmt.Sprintf("%d journaled transitions", n), func() bool {
		st, _ := srv.JournalStats()
		return st.Transitions >= n
	})
}

// storeKeyOf is the plan-store key a newStoreServer session (default
// planner, seed 1, RRSEvals 12) derives for wl submitted with its own
// cluster.
func storeKeyOf(wl *stubby.Workload) planstore.Key {
	return planstore.Key{Plan: wf.FingerprintWorkflow(wl.Workflow),
		Cluster: whatif.ClusterFingerprint(wl.Cluster), Planner: "stubby", Seed: 1,
		Search: stubby.SearchDigest(stubby.Options{RRSEvals: 12})}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s, %v", url, resp.Status, err)
	}
	return body
}

// postDoc posts a raw request document and returns the response.
func postDoc(t *testing.T, baseURL string, body []byte) (status int, ack planio.SubmitResponse, env planio.ErrorEnvelope) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusAccepted {
		err = json.Unmarshal(data, &ack)
	} else {
		err = json.Unmarshal(data, &env)
	}
	if err != nil {
		t.Fatalf("POST /v1/jobs: %s: undecodable body %q: %v", resp.Status, data, err)
	}
	return resp.StatusCode, ack, env
}

func keyFirstDoc(t *testing.T, wl *stubby.Workload) []byte {
	t.Helper()
	doc, err := planio.EncodeRequest(&planio.Request{Cluster: wl.Cluster,
		Fingerprint: wf.FingerprintWorkflow(wl.Workflow), Workflow: wl.Workflow.Name})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestKeyFirstHit: a repeat submission is three small requests, its result
// is the store's bytes, and neither the optimizer nor the journal sees it.
func TestKeyFirstHit(t *testing.T) {
	ctx := context.Background()
	f := newStoreServer(t, t.TempDir())
	wl := profiledWorkload(t, "IR", 0.1, 1)
	req := stubby.OptimizeRequest{Workflow: wl.Workflow, Cluster: wl.Cluster}
	cold, err := f.client.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	f.log.take()
	waitTransitions(t, f.srv, 2) // the cold job's Running and Done
	storeBefore, journalBefore := f.store.Stats(), f.journalStats(t)

	job, err := f.client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	events, err := job.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	for ev := range events {
		switch e := ev.(type) {
		case stubby.StateChangedEvent:
			log = append(log, e.State.String())
		case stubby.PlanStoreEvent:
			log = append(log, fmt.Sprintf("storeReport(hit=%v)", e.Hit))
		default:
			log = append(log, fmt.Sprintf("%T", ev))
		}
	}
	hit, err := job.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The same log Session.Submit's queue bypass writes for a store hit.
	if want := []string{"queued", "storeReport(hit=true)", "running", "done"}; !reflect.DeepEqual(log, want) {
		t.Errorf("event log = %q, want %q", log, want)
	}
	reqs, lens := f.log.take()
	id := job.ID()
	if want := []string{"POST /v1/jobs", "GET /v1/jobs/" + id + "/events", "GET /v1/jobs/" + id + "/result"}; !reflect.DeepEqual(reqs, want) {
		t.Fatalf("server saw %q, want %q", reqs, want)
	}
	if lens[0] <= 0 || lens[0] >= 2048 {
		t.Errorf("key-first submission body is %d bytes, want under 2 KB", lens[0])
	}
	storeAfter, journalAfter := f.store.Stats(), f.journalStats(t)
	if d := storeAfter.MemHits - storeBefore.MemHits; d != 1 || storeAfter.Computes != storeBefore.Computes {
		t.Errorf("store saw %d memory hits and %d computes for one hit job, want 1 and 0",
			d, storeAfter.Computes-storeBefore.Computes)
	}
	if journalAfter.Submits != journalBefore.Submits || journalAfter.BytesWritten != journalBefore.BytesWritten ||
		journalAfter.Transitions != journalBefore.Transitions {
		t.Errorf("journal moved over a hit job: %+v -> %+v", journalBefore, journalAfter)
	}
	if hit.FlowCards != 0 || hit.WhatIfCalls != 0 || hit.WhatIfComputed != 0 || hit.Duration != 0 {
		t.Errorf("hit reports a search: %+v", hit)
	}
	if !bytes.Equal(exportBytes(t, hit.Plan), exportBytes(t, cold.Plan)) || hit.EstimatedCost != cold.EstimatedCost {
		t.Error("hit differs from the cold job's plan or cost")
	}

	stored, ok, err := f.store.Get(storeKeyOf(wl))
	if err != nil || !ok {
		t.Fatalf("store holds no document for the key: %v", err)
	}
	if served := getBody(t, f.hs.URL+"/v1/jobs/"+id+"/result"); !bytes.Equal(served, stored) {
		t.Error("GET …/result body is not the store's document byte for byte")
	}
}

// TestKeyFirstMissFallsBack: a cold key is refused with "plan required",
// the client sends the full document down the ordinary path — searched,
// stored, journaled — and a second client's probe then hits.
func TestKeyFirstMissFallsBack(t *testing.T) {
	ctx := context.Background()
	f := newStoreServer(t, t.TempDir())
	wl := profiledWorkload(t, "PJ", 0.1, 1)
	req := stubby.OptimizeRequest{Workflow: wl.Workflow, Cluster: wl.Cluster}

	status, _, env := postDoc(t, f.hs.URL, keyFirstDoc(t, wl))
	if status != http.StatusNotFound || env.Error == nil || env.Error.Kind != "not_found" ||
		env.Error.Op != "probe" || !strings.Contains(env.Error.Message, "plan required") {
		t.Fatalf("cold probe answered %d %+v, want 404 not_found/probe/plan required", status, env.Error)
	}
	if st := f.store.Stats(); st.Puts != 0 || st.Computes != 0 {
		t.Fatalf("a probe wrote to the store: %+v", st)
	}
	f.log.take()

	job, err := f.client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	reqs, lens := f.log.take()
	if len(reqs) < 2 || reqs[0] != "POST /v1/jobs" || reqs[1] != "POST /v1/jobs" || lens[0] >= 2048 || lens[1] <= lens[0] {
		t.Fatalf("cold submission: requests %q with bodies %v, want a small probe then the full document", reqs, lens)
	}
	if cold.FlowCards == 0 {
		t.Error("cold job reports no search")
	}
	if st := f.store.Stats(); st.Computes != 1 || st.Puts != 1 {
		t.Errorf("store after the cold job: %+v, want 1 compute and 1 put", st)
	}
	if st := f.journalStats(t); st.Submits != 1 || st.BytesWritten == 0 {
		t.Errorf("journal after the cold job: %+v, want its submit record", st)
	}

	second, err := stubby.NewClient(f.hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := second.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if reqs, _ := f.log.take(); len(reqs) != 3 {
		t.Errorf("second client's job took %q, want three requests", reqs)
	}
	if !bytes.Equal(exportBytes(t, hit.Plan), exportBytes(t, cold.Plan)) {
		t.Error("second client's hit differs from the cold plan")
	}
	if st := f.store.Stats(); st.Computes != 1 {
		t.Errorf("computes = %d after the hit, want still 1", st.Computes)
	}
}

// TestKeyFirstCompat: documents and peers from before key-first submission
// keep working in both directions.
func TestKeyFirstCompat(t *testing.T) {
	ctx := context.Background()
	wl := profiledWorkload(t, "LA", 0.1, 1)

	t.Run("full document from an old client", func(t *testing.T) {
		f := newStoreServer(t, t.TempDir())
		body, err := planio.EncodeRequest(&planio.Request{Cluster: wl.Cluster, Plan: wl.Workflow})
		if err != nil {
			t.Fatal(err)
		}
		// What a PR 16 client sends: the same document, indented.
		old := indentJSON(t, body)
		cold, err := f.client.Job(postJob(t, f.hs.URL, old)).Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := optimizeWith12(t, wl)
		if fpOf(t, cold.Plan) != fpOf(t, want.Plan) || cold.EstimatedCost != want.EstimatedCost {
			t.Fatal("a full-document submission no longer returns the in-process plan")
		}
		id := postJob(t, f.hs.URL, old)
		stored, ok, err := f.store.Get(storeKeyOf(wl))
		if err != nil || !ok {
			t.Fatalf("store holds no document for the key: %v", err)
		}
		if served := getBody(t, f.hs.URL+"/v1/jobs/"+id+"/result"); !bytes.Equal(served, stored) {
			t.Error("a full-document hit is not served the store's bytes")
		}
		hit, err := f.client.Job(id).Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(exportBytes(t, hit.Plan), exportBytes(t, cold.Plan)) {
			t.Error("full-document hit differs from the cold plan")
		}
		if st := f.journalStats(t); st.Submits != 1 {
			t.Errorf("journal holds %d submit records, want only the cold job's", st.Submits)
		}
	})

	t.Run("new client against a server that rejects unknown members", func(t *testing.T) {
		result, err := planio.EncodeResult(&planio.Result{Plan: wl.Workflow, EstimatedCost: 7})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var posts []int
		record := func(status int) {
			mu.Lock()
			posts = append(posts, status)
			mu.Unlock()
		}
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
			// The PR 16 request schema, decoded as strictly as it was.
			var doc struct {
				Format, Planner    string
				Version            int
				Seed               int64
				DisableIncremental bool
				Cluster, Plan      json.RawMessage
			}
			dec := json.NewDecoder(r.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&doc); err != nil || doc.Plan == nil {
				record(http.StatusBadRequest)
				w.WriteHeader(http.StatusBadRequest)
				_ = json.NewEncoder(w).Encode(planio.ErrorEnvelope{Error: &planio.ErrorDoc{Kind: "invalid", Op: "submit", Message: fmt.Sprint(err)}})
				return
			}
			record(http.StatusAccepted)
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(planio.SubmitResponse{ID: "job-1", State: "queued"})
		})
		mux.HandleFunc("GET /v1/jobs/job-1/events", func(w http.ResponseWriter, r *http.Request) {
			_ = json.NewEncoder(w).Encode(planio.EventDoc{Type: planio.EventStateChanged, JobID: "job-1", State: "done"})
		})
		mux.HandleFunc("GET /v1/jobs/job-1/result", func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write(result) })
		hs := httptest.NewServer(mux)
		defer hs.Close()
		c, err := stubby.NewClient(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Optimize(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Cluster: wl.Cluster})
		if err != nil {
			t.Fatalf("client did not fall back to the full document: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		if res.EstimatedCost != 7 || !reflect.DeepEqual(posts, []int{http.StatusBadRequest, http.StatusAccepted}) {
			t.Errorf("posts answered %v, result cost %v; want the probe refused, the full document accepted", posts, res.EstimatedCost)
		}
	})

	t.Run("a server with neither store nor workers wants the plan", func(t *testing.T) {
		_, hs, _ := serviceFixture(t)
		for i := 0; i < 2; i++ {
			status, _, env := postDoc(t, hs.URL, keyFirstDoc(t, wl))
			if status != http.StatusNotFound || env.Error == nil || !errors.Is(env.Error.Err(), stubby.ErrKindNotFound) {
				t.Fatalf("probe %d answered %d %+v, want 404 not_found", i, status, env.Error)
			}
		}
	})
}

// optimizeWith12 is the in-process reference for newStoreServer's session.
func optimizeWith12(t *testing.T, wl *stubby.Workload) *stubby.Result {
	t.Helper()
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(1),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 12}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Optimize(context.Background(), wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterKeyFirstRelay: a coordinator without a store forwards a
// key-first submission as the job's one dispatch and relays the worker's
// result bytes without parsing them — shown by a worker whose "result" is
// valid JSON no result decoder would accept.
func TestClusterKeyFirstRelay(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	foreign := []byte(`{"answer": [1, 2, 3], "schema": "not a stubby-optimize-result"}`)
	var mu sync.Mutex
	var posted []byte
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		posted, _ = io.ReadAll(r.Body)
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(planio.SubmitResponse{ID: "job-9", State: "done"})
	})
	mux.HandleFunc("GET /v1/jobs/job-9/events", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(planio.EventDoc{Type: planio.EventStateChanged, JobID: "job-9", State: "done"})
	})
	mux.HandleFunc("GET /v1/jobs/job-9/result", func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write(foreign) })
	worker := httptest.NewServer(mux)
	defer worker.Close()

	coord := stubby.NewCoordinator()
	sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(context.Background())
	srv := stubby.NewServer(sess, stubby.WithCoordinator(coord))
	hs := httptest.NewServer(srv)
	defer hs.Close()
	coord.Register(worker.URL, "")

	status, ack, env := postDoc(t, hs.URL, keyFirstDoc(t, wl))
	if status != http.StatusAccepted || ack.State != "done" {
		t.Fatalf("forwarded probe answered %d %+v %+v, want a finished job", status, ack, env.Error)
	}
	if got := getBody(t, hs.URL+"/v1/jobs/"+ack.ID+"/result"); !bytes.Equal(got, foreign) {
		t.Errorf("coordinator served %q, want the worker's bytes %q", got, foreign)
	}
	// The forwarded document is still key-first, with the coordinator's
	// defaults resolved so the worker derives the same key.
	mu.Lock()
	defer mu.Unlock()
	fwd, err := planio.DecodeRequest(posted)
	if err != nil {
		t.Fatalf("worker received %q: %v", posted, err)
	}
	if fwd.Plan != nil || fwd.Fingerprint != wf.FingerprintWorkflow(wl.Workflow) || fwd.Planner != "stubby" ||
		fwd.Seed != 5 || fwd.Cluster == nil || *fwd.Cluster != *wl.Cluster || len(posted) >= 2048 {
		t.Errorf("forwarded document %q does not carry the resolved key", posted)
	}
	if st, _ := srv.ClusterStats(); st.Dispatches != 1 || st.Redispatches != 0 || st.Failovers != 0 {
		t.Errorf("cluster counters %+v, want exactly one dispatch", st)
	}
}

// TestClusterKeyFirstMiss: a worker that lacks the plan has its "plan
// required" relayed, the client falls back to the full document, and only
// that one counts as the job's dispatch; the repeat is then one forwarded
// probe answered from the worker's store.
func TestClusterKeyFirstMiss(t *testing.T) {
	ctx := context.Background()
	wl := profiledWorkload(t, "IR", 0.1, 1)
	hs, client, _ := startCoordinator(t, wl)
	w := startWorker(t, wl, t.TempDir(), hs.URL)
	waitLive(t, client, 1)

	status, _, env := postDoc(t, hs.URL, keyFirstDoc(t, wl))
	if status != http.StatusNotFound || env.Error == nil || env.Error.Op != "probe" {
		t.Fatalf("probe through the coordinator answered %d %+v, want the worker's 404 relayed", status, env.Error)
	}
	if st := clusterStats(t, client); st.Dispatches != 0 {
		t.Fatalf("a refused probe counted as %d dispatches", st.Dispatches)
	}

	cold, err := client.Optimize(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}
	if st := clusterStats(t, client); st.Dispatches != 1 || w.store.Stats().Computes != 1 {
		t.Fatalf("cold job: %d dispatches, %d computes; want 1 and 1", st.Dispatches, w.store.Stats().Computes)
	}
	hit, err := client.Optimize(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportBytes(t, hit.Plan), exportBytes(t, cold.Plan)) {
		t.Error("hit through the coordinator differs from the cold plan")
	}
	if st := clusterStats(t, client); st.Dispatches != 2 || st.Failovers != 0 || w.store.Stats().Computes != 1 {
		t.Errorf("after the repeat: %+v, %d computes; want 2 dispatches, 0 failovers, still 1 compute",
			st, w.store.Stats().Computes)
	}
}

// TestJournalRestartSkipsBornFinished: a job answered from the store
// leaves nothing in the journal, so a crash and reopen resurrects only what
// was really in flight — and the next incarnation never reissues an ID the
// first one handed out.
func TestJournalRestartSkipsBornFinished(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	storeDir, journalDir := filepath.Join(dir, "store"), filepath.Join(dir, "journal")
	f1 := newJournaledFixture(t, storeDir, journalDir)
	stored, parked := tinyWorkload(t, "IR"), tinyWorkload(t, "LA")

	if _, err := f1.client.Optimize(ctx, stubby.OptimizeRequest{Workflow: stored.Workflow, Cluster: stored.Cluster}); err != nil {
		t.Fatal(err)
	}
	inFlight, err := f1.client.Submit(ctx, stubby.OptimizeRequest{Workflow: parked.Workflow, Planner: "blocking", Cluster: parked.Cluster})
	if err != nil {
		t.Fatal(err)
	}
	<-f1.started
	waitTransitions(t, f1.srv, 3) // the stored job's Running and Done, the parked one's Running
	before, _ := f1.srv.JournalStats()
	hit, err := f1.client.Submit(ctx, stubby.OptimizeRequest{Workflow: stored.Workflow, Cluster: stored.Cluster})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hit.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if after, _ := f1.srv.JournalStats(); after != before {
		t.Fatalf("journal moved over a born-finished job: %+v -> %+v", before, after)
	}
	f1.crash(t)

	f2 := newJournaledFixture(t, storeDir, journalDir)
	defer func() {
		f2.hs.Close()
		f2.journal.Close()
	}()
	close(f2.release)
	if st, _ := f2.srv.JournalStats(); st.Recovered != 1 {
		t.Fatalf("recovered %d jobs, want only the one in flight at the crash", st.Recovered)
	}
	waitRemoteState(t, f2.client, inFlight.ID(), stubby.StateDone)
	// The stored answer survived, and asking again does not hand the new
	// job an ID the first incarnation gave away: a client still holding
	// one must find no job, never somebody else's.
	again, err := f2.client.Submit(ctx, stubby.OptimizeRequest{Workflow: stored.Workflow, Cluster: stored.Cluster})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := again.Wait(ctx); err != nil || res.FlowCards != 0 {
		t.Fatalf("the stored answer is lost after restart: %v, %+v", err, res)
	}
	if again.ID() == hit.ID() || again.ID() == inFlight.ID() {
		t.Fatalf("job ID %s reused across the restart", again.ID())
	}
	if _, err := f2.client.Job(hit.ID()).Status(ctx); !errors.Is(err, stubby.ErrKindNotFound) {
		t.Errorf("the born-finished job after restart: %v, want unknown like every finished job", err)
	}
}

// TestStoreHitAllocBudget guards the hit path by bytes allocated, which —
// unlike its milliseconds — repeats run to run: BR, the largest paper
// workflow, over real sockets, ten warm hits. A whole hit (client and
// server share the process) may allocate at most 24 times the served
// document's length. Before key-first submission it measured 39.0×
// (104.7 MB per hit for BR's 2,687,748-byte indented document); it
// measures 12.9× now (5.5 MB for the 428,863-byte compact one; 14.1× under
// -race), all of it the client reading and decoding the one document a hit
// needs. The server's share — everything between accepting the key-first
// POST and the last byte of the result, 22 KB here and 43 KB under -race —
// must stay under a quarter of the document: decoding or re-encoding it,
// fingerprinting a plan or journaling a record would each cost a multiple
// of it.
func TestStoreHitAllocBudget(t *testing.T) {
	ctx := context.Background()
	f := newStoreServer(t, t.TempDir())
	wl := differentialWorkloads(t)["BR"]
	req := stubby.OptimizeRequest{Workflow: wl.Workflow, Cluster: wl.Cluster}
	if _, err := f.client.Optimize(ctx, req); err != nil {
		t.Fatal(err)
	}
	doc, ok, err := f.store.Get(storeKeyOf(wl))
	if err != nil || !ok {
		t.Fatalf("store holds no document for BR: %v", err)
	}
	const hits = 10
	allocPerHit := func(hit func()) float64 {
		hit() // connections, lazy initialisation
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < hits; i++ {
			hit()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / hits
	}

	probe := keyFirstDoc(t, wl)
	server := allocPerHit(func() {
		status, ack, env := postDoc(t, f.hs.URL, probe)
		if status != http.StatusAccepted {
			t.Fatalf("probe refused: %+v", env.Error)
		}
		resp, err := http.Get(f.hs.URL + "/v1/jobs/" + ack.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != int64(len(doc)) {
			t.Fatalf("read %d of %d result bytes: %v", n, len(doc), err)
		}
	})
	if limit := float64(len(doc)) / 4; server > limit {
		t.Errorf("server side of a hit allocates %.0f bytes for a %d-byte document, budget %.0f: "+
			"something parses, encodes, fingerprints or journals on the hit path", server, len(doc), limit)
	}

	whole := allocPerHit(func() {
		if _, err := f.client.Optimize(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("BR hit: %d-byte document, %.0f bytes allocated server side, %.1fx the document end to end",
		len(doc), server, whole/float64(len(doc)))
	if limit := 24 * float64(len(doc)); whole > limit {
		t.Errorf("a warm hit allocates %.0f bytes, %.1fx its %d-byte document; budget 24x",
			whole, whole/float64(len(doc)), len(doc))
	}
	if st := f.store.Stats(); st.Computes != 1 {
		t.Errorf("computes = %d, want only the cold job's", st.Computes)
	}
}
