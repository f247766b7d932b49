package stubby_test

// Chaos and crash-recovery suite for the journaled service: in-process
// restart recovery, cancellation semantics across restarts, event-stream
// resume exactness at every cut point, client retry behavior, and the
// full subprocess crash drill — stubbyd hard-killed and restarted
// mid-batch while a seeded fault-injecting transport inside the client
// delays, rejects, resets and truncates its requests, with every
// submission converging to the fault-free plan.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/planio"
)

// journaledFixture is one "process instance" of a journaled server: a
// session with the blocking test planner, a plan store and journal over
// the given directories, and an HTTP listener. Crash simulation closes
// the listener and journal without draining the session.
type journaledFixture struct {
	sess    *stubby.Session
	srv     *stubby.Server
	hs      *httptest.Server
	client  *stubby.Client
	journal *stubby.Journal
	store   *stubby.PlanStore
	started chan struct{}
	release chan struct{}
}

func newJournaledFixture(t *testing.T, storeDir, journalDir string) *journaledFixture {
	t.Helper()
	store, err := stubby.NewPlanStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := stubby.NewSession(
		stubby.WithSeed(1),
		stubby.WithParallelism(1),
		stubby.WithQueueDepth(8),
		stubby.WithPlanStore(store),
	)
	if err != nil {
		t.Fatal(err)
	}
	started, release := registerBlocking(t, sess)
	journal, err := stubby.OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := stubby.NewServer(sess, stubby.WithJournal(journal))
	hs := httptest.NewServer(srv)
	client, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return &journaledFixture{sess: sess, srv: srv, hs: hs, client: client,
		journal: journal, store: store, started: started, release: release}
}

// crash simulates a hard kill: the listener and journal drop with jobs
// still in flight and nothing drains. The session's parked planner
// goroutines are released afterward so the test process does not leak
// them; their late journal appends land on a closed journal and are
// counted as errors, exactly like writes lost to a real kill.
func (f *journaledFixture) crash(t *testing.T) {
	t.Helper()
	f.hs.CloseClientConnections()
	f.hs.Close()
	if err := f.journal.Close(); err != nil {
		t.Fatal(err)
	}
	close(f.release)
}

// waitRemoteState polls the job until it reaches a terminal state.
func waitRemoteState(t *testing.T, c *stubby.Client, id string, want stubby.JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Job(id).Status(context.Background())
		if err != nil {
			t.Fatalf("status %s: %v", id, err)
		}
		if st.State() == want {
			return
		}
		if st.State().Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: state %v, want %v", id, st.State(), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJournalRestartRecovery: jobs in flight at a hard kill — one
// running, one still queued — are re-enqueued under their original IDs
// when a new server opens the same journal, and complete. A duplicate
// submission of an in-flight request attaches to the existing job
// instead of starting a second one.
func TestJournalRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	storeDir, journalDir := filepath.Join(dir, "store"), filepath.Join(dir, "journal")
	ctx := context.Background()

	f1 := newJournaledFixture(t, storeDir, journalDir)
	wlA, wlB := tinyWorkload(t, "IR"), tinyWorkload(t, "BR")
	reqA := stubby.OptimizeRequest{Workflow: wlA.Workflow, Planner: "blocking", Cluster: wlA.Cluster}
	reqB := stubby.OptimizeRequest{Workflow: wlB.Workflow, Planner: "blocking", Cluster: wlB.Cluster}

	jobA, err := f1.client.Submit(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	<-f1.started // A is running (parked in the planner)
	jobB, err := f1.client.Submit(ctx, reqB)
	if err != nil {
		t.Fatal(err)
	}

	// Idempotent resubmission: the same request attaches to the live job.
	dup, err := f1.client.Submit(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID() != jobA.ID() {
		t.Fatalf("duplicate submission got job %s, want attach to %s", dup.ID(), jobA.ID())
	}

	f1.crash(t)

	f2 := newJournaledFixture(t, storeDir, journalDir)
	defer func() {
		f2.hs.Close()
		f2.journal.Close()
	}()
	close(f2.release) // recovered jobs run through the planner immediately

	if stats, ok := f2.srv.JournalStats(); !ok || stats.Recovered != 2 {
		t.Fatalf("recovered = %+v, ok=%v; want 2 incomplete jobs recovered", stats, ok)
	}
	waitRemoteState(t, f2.client, jobA.ID(), stubby.StateDone)
	waitRemoteState(t, f2.client, jobB.ID(), stubby.StateDone)
}

// TestJournalRestartLegacySubmitRecord: a journal written before the
// estimation-mode knob was retired holds submit records whose request
// documents carry "disableIncremental". Such a document resolves to the
// same request key as the current one (a duplicate submission attaches to
// it), and the record re-enqueues and completes on restart.
func TestJournalRestartLegacySubmitRecord(t *testing.T) {
	dir := t.TempDir()
	storeDir, journalDir := filepath.Join(dir, "store"), filepath.Join(dir, "journal")
	ctx := context.Background()

	f1 := newJournaledFixture(t, storeDir, journalDir)
	wl := tinyWorkload(t, "IR")
	id := postJob(t, f1.hs.URL, legacyRequestBody(t,
		&planio.Request{Planner: "blocking", Cluster: wl.Cluster, Plan: wl.Workflow}))
	<-f1.started
	dup, err := f1.client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking", Cluster: wl.Cluster})
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID() != id {
		t.Fatalf("current-format duplicate got job %s, want attach to legacy-format job %s", dup.ID(), id)
	}

	f1.crash(t)

	f2 := newJournaledFixture(t, storeDir, journalDir)
	defer func() {
		f2.hs.Close()
		f2.journal.Close()
	}()
	close(f2.release)
	if stats, ok := f2.srv.JournalStats(); !ok || stats.Recovered != 1 {
		t.Fatalf("recovered = %+v, ok=%v; want the legacy submit record recovered", stats, ok)
	}
	waitRemoteState(t, f2.client, id, stubby.StateDone)
}

// TestSubmitRefusedWhenJournalRefuses: a submission the journal cannot
// record is not acknowledged — the server answers 503 (retryable
// ErrKindUnavailable) and drops the job it had admitted, instead of
// promising durability it does not have.
func TestSubmitRefusedWhenJournalRefuses(t *testing.T) {
	dir := t.TempDir()
	f := newJournaledFixture(t, filepath.Join(dir, "store"), filepath.Join(dir, "journal"))
	defer f.hs.Close()
	defer close(f.release)
	ctx := context.Background()
	// A closed journal refuses every append, like a log on a full disk.
	if err := f.journal.Close(); err != nil {
		t.Fatal(err)
	}

	wl := tinyWorkload(t, "IR")
	body, err := planio.EncodeRequest(&planio.Request{Planner: "blocking", Cluster: wl.Cluster, Plan: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit with a refusing journal: %s (Retry-After %q), want 503 with a hint",
			resp.Status, resp.Header.Get("Retry-After"))
	}
	_, err = f.client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking", Cluster: wl.Cluster})
	if !errors.Is(err, stubby.ErrKindUnavailable) {
		t.Fatalf("client submit = %v, want ErrKindUnavailable (retryable under any retry policy)", err)
	}

	// Nothing was acknowledged, so nothing may stay admitted.
	waitForCluster(t, "refused jobs to leave the queue", func() bool {
		st, err := f.client.Stats(ctx)
		return err == nil && st.Queued == 0 && st.Busy == 0
	})
	if stats, ok := f.srv.JournalStats(); !ok || stats.Errors < 1 {
		t.Fatalf("journal stats = %+v, ok=%v; want the refused appends counted", stats, ok)
	}
}

// TestJournalRestartCanceledStaysCanceled: a job canceled before the
// crash has its terminal record in the journal, so recovery must not
// resurrect it — after restart it is simply gone (ErrKindNotFound),
// while its incomplete sibling is recovered.
func TestJournalRestartCanceledStaysCanceled(t *testing.T) {
	dir := t.TempDir()
	storeDir, journalDir := filepath.Join(dir, "store"), filepath.Join(dir, "journal")
	ctx := context.Background()

	f1 := newJournaledFixture(t, storeDir, journalDir)
	wlA, wlB := tinyWorkload(t, "IR"), tinyWorkload(t, "BR")
	jobA, err := f1.client.Submit(ctx, stubby.OptimizeRequest{Workflow: wlA.Workflow, Planner: "blocking", Cluster: wlA.Cluster})
	if err != nil {
		t.Fatal(err)
	}
	<-f1.started
	jobB, err := f1.client.Submit(ctx, stubby.OptimizeRequest{Workflow: wlB.Workflow, Planner: "blocking", Cluster: wlB.Cluster})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jobB.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	waitRemoteState(t, f1.client, jobB.ID(), stubby.StateCanceled)
	// The server journals a transition just after the state flips; a kill
	// inside that window would rightly resurrect B, so wait for both
	// records (A running, B canceled) before pulling the plug.
	waitForCluster(t, "the cancel to reach the journal", func() bool {
		stats, _ := f1.srv.JournalStats()
		return stats.Transitions >= 2
	})

	f1.crash(t)

	f2 := newJournaledFixture(t, storeDir, journalDir)
	defer func() {
		f2.hs.Close()
		f2.journal.Close()
	}()
	close(f2.release)

	if stats, ok := f2.srv.JournalStats(); !ok || stats.Recovered != 1 {
		t.Fatalf("recovered = %+v, ok=%v; want only the incomplete job recovered", stats, ok)
	}
	waitRemoteState(t, f2.client, jobA.ID(), stubby.StateDone)
	if _, err := f2.client.Job(jobB.ID()).Status(ctx); !errors.Is(err, stubby.ErrKindNotFound) {
		t.Fatalf("pre-crash-canceled job resurrected: err=%v, want ErrKindNotFound", err)
	}
}

// TestJournalRecoveryBacklogExceedsQueue: a server restarted with a smaller
// queue than the backlog it journaled loses none of it. Three jobs are in
// flight at the kill; the next incarnation has one worker and one queue
// slot, so recovery can place two and the third must wait — however long —
// for the first to finish. All three complete under their original IDs and
// none is journaled failed.
func TestJournalRecoveryBacklogExceedsQueue(t *testing.T) {
	dir := t.TempDir()
	storeDir, journalDir := filepath.Join(dir, "store"), filepath.Join(dir, "journal")
	ctx := context.Background()

	f1 := newJournaledFixture(t, storeDir, journalDir)
	wl := tinyWorkload(t, "IR")
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		job, err := f1.client.Submit(ctx, stubby.OptimizeRequest{
			Workflow: wl.Workflow, Planner: "blocking", Cluster: wl.Cluster, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID())
	}
	f1.crash(t)

	// No plan store this time: the killed incarnation's released jobs may
	// still publish their plans, and a recovered job answered from the
	// store would never occupy the queue this test is about.
	sess, err := stubby.NewSession(stubby.WithSeed(1), stubby.WithParallelism(1),
		stubby.WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	started, release := registerBlocking(t, sess)
	journal, err := stubby.OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	// NewServer re-enqueues the backlog before it returns, so it is held
	// until the gate opens: the worker is parked in job one, job two fills
	// the queue, job three has nowhere to go.
	built := make(chan *stubby.Server, 1)
	go func() { built <- stubby.NewServer(sess, stubby.WithJournal(journal)) }()
	<-started
	select {
	case <-built:
		t.Fatal("NewServer returned with a third of the backlog unplaced")
	default:
	}
	close(release)
	srv := <-built
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		waitRemoteState(t, client, id, stubby.StateDone)
	}
	// Every job reaches the journal as done (running and done, a moment
	// after the job's own events): a reopen finds nothing to recover. (A job
	// recovery gave up on is journaled failed and never adopted, so its ID
	// would have been unknown above.)
	waitTransitions(t, srv, 6)
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := stubby.OpenJournal(journalDir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if st := reopened.Stats(); st.Recovered != 0 {
		t.Fatalf("reopened journal recovers %d jobs, want 0", st.Recovered)
	}
}

// TestWireCancelRacesCompletion: Cancel issued concurrently with the
// job's completion must land in exactly one consistent terminal state —
// Done with a result, or Canceled with a typed error — on the wire and
// in the journal, never a mix.
func TestWireCancelRacesCompletion(t *testing.T) {
	for i := 0; i < 4; i++ {
		dir := t.TempDir()
		f := newJournaledFixture(t, filepath.Join(dir, "store"), filepath.Join(dir, "journal"))
		ctx := context.Background()
		wl := tinyWorkload(t, "IR")
		job, err := f.client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking", Cluster: wl.Cluster})
		if err != nil {
			t.Fatal(err)
		}
		<-f.started

		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); close(f.release) }()
		go func() { defer wg.Done(); _, _ = job.Cancel(ctx) }()
		wg.Wait()

		res, err := job.Wait(ctx)
		st, serr := job.Status(ctx)
		if serr != nil {
			t.Fatal(serr)
		}
		switch {
		case err == nil:
			if res == nil || st.State() != stubby.StateDone {
				t.Fatalf("iter %d: Wait succeeded but state=%v res=%v", i, st.State(), res)
			}
		case errors.Is(err, stubby.ErrKindCanceled):
			if st.State() != stubby.StateCanceled {
				t.Fatalf("iter %d: canceled error but state=%v", i, st.State())
			}
		default:
			t.Fatalf("iter %d: unexpected outcome: %v", i, err)
		}
		f.hs.Close()
		f.journal.Close()
	}
}

// TestReadyzFlipsOnDrain: /healthz is liveness (200 even while
// draining); /readyz is readiness and flips to 503 with Retry-After the
// moment Drain begins, so load balancers stop routing before the
// listener closes.
func TestReadyzFlipsOnDrain(t *testing.T) {
	dir := t.TempDir()
	f := newJournaledFixture(t, filepath.Join(dir, "store"), filepath.Join(dir, "journal"))
	defer func() {
		f.hs.Close()
		f.journal.Close()
	}()
	close(f.release)

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(f.hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: %s", resp.Status)
	}
	if err := f.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while drained: %s, want 200 (liveness)", resp.Status)
	}
	resp := get("/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while drained: %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 missing Retry-After")
	}
}

// eventLines fetches one event-stream connection's complete NDJSON lines.
func eventLines(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			lines = append(lines, string(line))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestEventStreamResumeExactness: the ?from=N resume cursor is exact at
// EVERY cut point — for each k, the resumed stream is byte-for-byte the
// full stream's suffix from line k, so a client that reconnects after
// reading k lines replays precisely the missed events: no gaps, no
// duplicates, terminal event included exactly once.
func TestEventStreamResumeExactness(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	_, hs, client := serviceFixture(t)
	ctx := context.Background()
	job, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Cluster: wl.Cluster})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	base := hs.URL + "/v1/jobs/" + job.ID() + "/events"
	full := eventLines(t, base)
	if len(full) < 3 {
		t.Fatalf("stream too short to cut: %d lines", len(full))
	}
	for k := 0; k <= len(full); k++ {
		got := eventLines(t, fmt.Sprintf("%s?from=%d", base, k))
		want := full[k:]
		if len(got) != len(want) {
			t.Fatalf("from=%d: %d lines, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("from=%d line %d:\n got %s\nwant %s", k, i, got[i], want[i])
			}
		}
	}
	// Past-the-end cursors are not an error: the job is terminal, so the
	// stream closes with nothing to replay.
	if got := eventLines(t, fmt.Sprintf("%s?from=%d", base, len(full)+5)); len(got) != 0 {
		t.Fatalf("past-end cursor replayed %d lines", len(got))
	}
	// Malformed cursors are rejected as invalid.
	resp, err := http.Get(base + "?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from=-1: %s, want 400", resp.Status)
	}
}

// TestClientEventResumeThroughFaults: a retry-policy client streaming
// events through a transport that truncates responses mid-body
// reassembles the exact event sequence across reconnects — the end-to-end
// form of the cursor-exactness property.
func TestClientEventResumeThroughFaults(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	_, hs, direct := serviceFixture(t)
	ctx := context.Background()
	job, err := direct.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Cluster: wl.Cluster})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// The reference sequence, fetched fault-free.
	want := collectEvents(t, direct, job.ID())

	// Sweep fault seeds: the cut points vary per seed, the reassembled
	// stream must not. At least one sweep must actually truncate and
	// resume, or the test exercised nothing.
	var truncations, resumes uint64
	for seed := int64(1); seed <= 6; seed++ {
		ft := newFaultTransport(strings.TrimPrefix(hs.URL, "http://"), seed,
			faultProfile{TruncateProb: 0.8, CutAfterMaxBytes: 900})
		flaky, err := stubby.NewClient(hs.URL, stubby.WithHTTPClient(&http.Client{Transport: ft}),
			stubby.WithRetryPolicy(stubby.RetryPolicy{
				MaxAttempts: 10, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: seed,
			}))
		if err != nil {
			t.Fatal(err)
		}
		got := collectEvents(t, flaky, job.ID())
		if len(got) != len(want) {
			t.Fatalf("seed %d: resumed stream has %d events, want %d (faults: %v)",
				seed, len(got), len(want), ft)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d event %d: got %#v, want %#v", seed, i, got[i], want[i])
			}
		}
		truncations += ft.truncations.Load()
		resumes += flaky.Metrics().Resumes
	}
	if truncations == 0 {
		t.Fatal("transport injected no truncations; test exercised nothing")
	}
	if resumes == 0 {
		t.Fatal("client reported no stream resumes despite truncation")
	}
}

// collectEvents drains a job's full event stream into comparable strings.
func collectEvents(t *testing.T, c *stubby.Client, id string) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ch, err := c.Job(id).Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for ev := range ch {
		out = append(out, fmt.Sprintf("%#v", ev))
	}
	return out
}

// fakeEndpoint is a scripted HTTP server for retry-policy unit tests: it
// serves the canned responses in order, then repeats the last one.
func fakeEndpoint(t *testing.T, responses ...func(w http.ResponseWriter)) (*httptest.Server, *int, *http.Header) {
	t.Helper()
	var (
		mu       sync.Mutex
		attempts int
		lastHdr  http.Header
	)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		i := attempts
		attempts++
		lastHdr = r.Header.Clone()
		mu.Unlock()
		if i >= len(responses) {
			i = len(responses) - 1
		}
		responses[i](w)
	}))
	t.Cleanup(hs.Close)
	return hs, &attempts, &lastHdr
}

func respondError(status int, kind string, retryAfter string) func(http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"error":{"kind":%q,"op":"test","message":"scripted"}}`, kind)
	}
}

func respondStatsOK(w http.ResponseWriter) {
	fmt.Fprint(w, `{"status":"ok","queue":{"workers":2,"depth":8,"queued":0,"busy":0}}`)
}

// TestClientRetryTransient: a retry-policy client rides out transient
// 429/503 responses (honoring Retry-After) and succeeds, with its
// metrics accounting for every attempt.
func TestClientRetryTransient(t *testing.T) {
	hs, attempts, _ := fakeEndpoint(t,
		respondError(http.StatusTooManyRequests, "overloaded", "0"),
		respondError(http.StatusServiceUnavailable, "unavailable", ""),
		func(w http.ResponseWriter) { respondStatsOK(w) },
	)
	c, err := stubby.NewClient(hs.URL, stubby.WithRetryPolicy(stubby.RetryPolicy{
		MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: 42,
	}))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 {
		t.Fatalf("stats decoded wrong: %+v", st)
	}
	if *attempts != 3 {
		t.Fatalf("server saw %d attempts, want 3", *attempts)
	}
	m := c.Metrics()
	if m.Requests != 3 || m.Retries != 2 {
		t.Fatalf("metrics %+v, want 3 requests / 2 retries", m)
	}
}

// TestClientRetryExhaustion: persistent overload surfaces as the typed
// error after exactly MaxAttempts tries.
func TestClientRetryExhaustion(t *testing.T) {
	hs, attempts, _ := fakeEndpoint(t, respondError(http.StatusTooManyRequests, "overloaded", ""))
	c, err := stubby.NewClient(hs.URL, stubby.WithRetryPolicy(stubby.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, serr := c.Stats(context.Background())
	if !errors.Is(serr, stubby.ErrKindOverloaded) {
		t.Fatalf("err = %v, want ErrKindOverloaded", serr)
	}
	if *attempts != 3 {
		t.Fatalf("server saw %d attempts, want 3", *attempts)
	}
}

// TestClientRetryNonRetryable: errors retrying cannot fix (invalid
// input) are returned after a single attempt, even under a policy.
func TestClientRetryNonRetryable(t *testing.T) {
	hs, attempts, _ := fakeEndpoint(t, respondError(http.StatusBadRequest, "invalid", ""))
	c, err := stubby.NewClient(hs.URL, stubby.WithRetryPolicy(stubby.RetryPolicy{
		MaxAttempts: 5, BaseDelay: time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, serr := c.Stats(context.Background())
	if !errors.Is(serr, stubby.ErrKindInvalid) {
		t.Fatalf("err = %v, want ErrKindInvalid", serr)
	}
	if *attempts != 1 {
		t.Fatalf("server saw %d attempts, want 1 (no retries of invalid input)", *attempts)
	}
}

// TestClientNoPolicySingleAttempt: without WithRetryPolicy the client
// behaves exactly as before this change — one attempt, typed error back.
func TestClientNoPolicySingleAttempt(t *testing.T) {
	hs, attempts, _ := fakeEndpoint(t, respondError(http.StatusTooManyRequests, "overloaded", "1"))
	c, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := c.Stats(context.Background()); !errors.Is(serr, stubby.ErrKindOverloaded) {
		t.Fatalf("want ErrKindOverloaded")
	}
	if *attempts != 1 {
		t.Fatalf("server saw %d attempts, want 1", *attempts)
	}
}

// TestClientDeadlinePropagation: a context deadline travels to the
// server as the X-Stubby-Deadline-MS header with the remaining budget.
func TestClientDeadlinePropagation(t *testing.T) {
	hs, _, lastHdr := fakeEndpoint(t, func(w http.ResponseWriter) { respondStatsOK(w) })
	c, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	v := lastHdr.Get("X-Stubby-Deadline-MS")
	if v == "" {
		t.Fatal("deadline header missing")
	}
	var ms int64
	if _, err := fmt.Sscanf(v, "%d", &ms); err != nil || ms <= 0 || ms > 2000 {
		t.Fatalf("deadline header %q out of range", v)
	}
}

// --- fault-injecting transport ----------------------------------------

// faultProfile sets a faultTransport's fault probabilities (each in [0,1])
// and shapes. A request is delayed by a drawn duration in [LatencyMin,
// LatencyMax], or answered 503 (Retry-After: 1) without reaching the
// server. A reset or truncation cuts the response at an offset drawn in
// [1, CutAfterMaxBytes] of an emulated status line, header block and body:
// a cut in the header block loses the response after the server acted; a
// cut in the body ends it with a connection reset or a clean EOF.
type faultProfile struct {
	LatencyProb                            float64
	LatencyMin, LatencyMax                 time.Duration
	Reject503Prob, ResetProb, TruncateProb float64
	CutAfterMaxBytes                       int
}

// faultTransport is a seeded fault-injecting http.RoundTripper. Every
// decision is a splitmix64 draw over (seed, request index, salt), so a
// fixed seed and request order replay the same faults. Requests go to the
// host:port in target, which a crash drill swaps to its restarted server.
// onAccept, when set, runs once, on the goroutine of the first job
// submission the server answers 202, before that response returns —
// whatever the fault then does to it.
type faultTransport struct {
	seed       int64
	profile    faultProfile
	target     atomic.Pointer[string]
	onAccept   func()
	acceptOnce sync.Once

	requests, delayed, injected503, resets, truncations, errs atomic.Uint64
}

func newFaultTransport(target string, seed int64, p faultProfile) *faultTransport {
	f := &faultTransport{seed: seed, profile: p}
	f.target.Store(&target)
	return f
}

func (f *faultTransport) String() string {
	return fmt.Sprintf("requests=%d delayed=%d injected503=%d resets=%d truncations=%d errors=%d",
		f.requests.Load(), f.delayed.Load(), f.injected503.Load(), f.resets.Load(), f.truncations.Load(), f.errs.Load())
}

// mix64 is splitmix64's finalizer, the repository's counter-based draw.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw yields a uniform float64 in [0,1) for (request n, salt).
func (f *faultTransport) draw(n, salt uint64) float64 {
	h := mix64(mix64(uint64(f.seed)) ^ mix64(n*0x9e37+salt))
	return float64(h>>11) / float64(1<<53)
}

// Draw salts, one per independent decision.
const saltLatency, saltLatencyAmount, salt503, saltReset, saltTruncate, saltCutOffset = 1, 2, 3, 4, 5, 6

func (f *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n, p := f.requests.Add(1)-1, f.profile
	if p.LatencyProb > 0 && f.draw(n, saltLatency) < p.LatencyProb {
		f.delayed.Add(1)
		time.Sleep(p.LatencyMin + time.Duration(f.draw(n, saltLatencyAmount)*float64(p.LatencyMax-p.LatencyMin)))
	}
	if p.Reject503Prob > 0 && f.draw(n, salt503) < p.Reject503Prob {
		f.injected503.Add(1)
		if req.Body != nil {
			req.Body.Close()
		}
		const body = `{"error":{"kind":"unavailable","op":"proxy","message":"injected fault: service unavailable"}}`
		return &http.Response{Status: "503 Service Unavailable", StatusCode: http.StatusServiceUnavailable,
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Request: req, ContentLength: int64(len(body)),
			Header: http.Header{"Content-Type": {"application/json"}, "Retry-After": {"1"}},
			Body:   io.NopCloser(strings.NewReader(body))}, nil
	}
	var end error // how a cut body ends; nil leaves the response whole
	switch {
	case p.ResetProb > 0 && f.draw(n, saltReset) < p.ResetProb:
		f.resets.Add(1)
		end = fmt.Errorf("read: %w", syscall.ECONNRESET)
	case p.TruncateProb > 0 && f.draw(n, saltTruncate) < p.TruncateProb:
		f.truncations.Add(1)
		end = io.EOF
	}
	out := req.Clone(req.Context())
	out.URL.Host, out.Host = *f.target.Load(), ""
	resp, err := http.DefaultTransport.RoundTrip(out)
	if err != nil {
		f.errs.Add(1)
		return nil, err
	}
	if f.onAccept != nil && req.Method == http.MethodPost && req.URL.Path == "/v1/jobs" &&
		resp.StatusCode == http.StatusAccepted {
		f.acceptOnce.Do(f.onAccept)
	}
	if end == nil {
		return resp, nil
	}
	var head bytes.Buffer
	fmt.Fprintf(&head, "HTTP/1.1 %s\r\n", resp.Status)
	resp.Header.Write(&head)
	left := 1 + int(f.draw(n, saltCutOffset)*float64(p.CutAfterMaxBytes)) - head.Len() - len("\r\n")
	if left < 0 {
		resp.Body.Close()
		return nil, fmt.Errorf("fault transport: request %d lost its response in the header block", n)
	}
	resp.Body = &cutBody{ReadCloser: resp.Body, left: left, end: end}
	return resp, nil
}

// cutBody passes left more bytes of a response body, then fails with end.
type cutBody struct {
	io.ReadCloser
	left int
	end  error
}

func (b *cutBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, b.end
	}
	n, err := b.ReadCloser.Read(p[:min(len(p), b.left)])
	b.left -= n
	return n, err
}

// --- subprocess crash drill -------------------------------------------

var servingRE = regexp.MustCompile(`serving on (\S+)`)

// stubbydProc is one stubbyd subprocess with its parsed listen address.
type stubbydProc struct {
	cmd  *exec.Cmd
	addr string
}

func startStubbyd(t *testing.T, bin string, args ...string) *stubbydProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		return &stubbydProc{cmd: cmd, addr: addr}
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("stubbyd did not report its listen address")
		return nil
	}
}

func (p *stubbydProc) kill() {
	_ = p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
}

// drillSubmit runs one submission through the flaky client and records
// the resulting plan fingerprint.
type drillResult struct {
	workload string
	fp       string
	err      error
}

// TestCrashDrill is the acceptance drill and the one real-socket
// subprocess drill: N concurrent submissions through a seeded
// fault-injecting transport in the client (latency, injected 503s,
// connection resets, truncated responses) against a stubbyd that is
// hard-killed (SIGKILL) the moment it acknowledges the first submission and
// restarted over the same plan store and journal; while it is down, dials
// are refused. The restarted server must recover the journaled job, and at
// least one dial must have been refused. Every submission must
// converge to StateDone with a plan byte-identical (fingerprint-identical)
// to the fault-free run's, and the restarted server must not re-optimize
// more than the distinct workload count.
func TestCrashDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash drill skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "stubbyd")
	build := exec.Command("go", "build", "-o", bin, "github.com/stubby-mr/stubby/cmd/stubbyd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building stubbyd: %v\n%s", err, out)
	}

	// Profiled, so each search takes milliseconds to a few hundred, not
	// microseconds: a job acknowledged by the server is still running when
	// the kill lands.
	abbrs := []string{"IR", "BR", "LA"}
	wls := map[string]*stubby.Workload{}
	for _, abbr := range abbrs {
		wls[abbr] = profiledWorkload(t, abbr, 0.05, 1)
	}
	// Fault-free reference run: same flags, clean dirs, direct connection.
	refDir := t.TempDir()
	ref := startStubbyd(t, bin, "-addr", "127.0.0.1:0", "-workers", "2",
		"-seed", "1", "-rrs-evals", "16", "-store", filepath.Join(refDir, "store"))
	defer ref.kill()
	refClient, err := stubby.NewClient("http://" + ref.addr)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	for _, abbr := range abbrs {
		wl := wls[abbr]
		res, rerr := refClient.Optimize(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Cluster: wl.Cluster})
		if rerr != nil {
			t.Fatalf("reference %s: %v", abbr, rerr)
		}
		want[abbr] = fpOf(t, res.Plan)
	}
	ref.kill()

	// Chaos run: same workloads, flaky transport, kill + restart mid-batch.
	chaosDir := t.TempDir()
	storeDir := filepath.Join(chaosDir, "store")
	args := []string{"-addr", "127.0.0.1:0", "-workers", "1",
		"-seed", "1", "-rrs-evals", "16", "-store", storeDir}
	p1 := startStubbyd(t, bin, args...)
	ft := newFaultTransport(p1.addr, 1234, faultProfile{
		LatencyProb: 0.2, LatencyMin: time.Millisecond, LatencyMax: 5 * time.Millisecond,
		Reject503Prob: 0.15, ResetProb: 0.08, TruncateProb: 0.08, CutAfterMaxBytes: 2048,
	})
	// Hard-kill the server the moment it acknowledges a submission — it
	// journals before it acknowledges, so the job is on disk and its search
	// still running — and, below, restart it over the same store and
	// journal. Until the transport retargets the new listener, dials are
	// refused.
	killed := make(chan struct{})
	ft.onAccept = func() { p1.kill(); close(killed) }
	flaky := stubby.WithHTTPClient(&http.Client{Transport: ft})

	const perWorkload = 2
	results := make(chan drillResult, len(abbrs)*perWorkload)
	var wg sync.WaitGroup
	for i := 0; i < len(abbrs)*perWorkload; i++ {
		abbr := abbrs[i%len(abbrs)]
		seed := int64(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, cerr := stubby.NewClient("http://"+p1.addr, flaky, stubby.WithRetryPolicy(stubby.RetryPolicy{
				MaxAttempts: 12, BaseDelay: 25 * time.Millisecond,
				MaxDelay: 400 * time.Millisecond, Seed: seed,
			}))
			if cerr != nil {
				results <- drillResult{workload: abbr, err: cerr}
				return
			}
			wl := wls[abbr]
			res, oerr := client.Optimize(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Cluster: wl.Cluster})
			if oerr != nil {
				results <- drillResult{workload: abbr, err: oerr}
				return
			}
			results <- drillResult{workload: abbr, fp: fpOf(t, res.Plan)}
		}()
	}

	select {
	case <-killed:
	case <-ctx.Done():
		ft.acceptOnce.Do(ft.onAccept)
		t.Fatalf("no submission was acknowledged (faults: %v)", ft)
	}
	p2 := startStubbyd(t, bin, args...)
	defer p2.kill()
	ft.target.Store(&p2.addr)

	wg.Wait()
	close(results)
	t.Logf("fault transport: %v", ft)
	for r := range results {
		if r.err != nil {
			t.Fatalf("submission %s failed through chaos: %v (faults: %v)", r.workload, r.err, ft)
		}
		if r.fp != want[r.workload] {
			t.Fatalf("workload %s: chaos plan %s != fault-free plan %s", r.workload, r.fp, want[r.workload])
		}
	}

	// Bound on wasted work: the restarted server's optimizer ran at most
	// once per distinct workload — everything else was plan-store hits,
	// journal recovery included.
	direct, err := stubby.NewClient("http://" + p2.addr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := direct.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanStore == nil {
		t.Fatal("restarted server reports no plan store")
	}
	if st.PlanStore.Computes > uint64(len(abbrs)) {
		t.Fatalf("restarted server ran %d optimizations, want <= %d distinct workloads",
			st.PlanStore.Computes, len(abbrs))
	}
	if st.Journal == nil {
		t.Fatal("restarted server reports no journal in /statsz")
	}
	// The restarted server shares the first one's journal: it re-enqueued
	// what was in flight at the kill (Recovered), or — when every journaled
	// job had already finished — dropped their records on open (Compacted).
	// Its own traffic may be all store hits, which are never journaled.
	if st.Journal.Submits == 0 && st.Journal.Recovered == 0 && st.Journal.Compacted == 0 {
		t.Fatalf("journal saw no activity: %+v", st.Journal)
	}
	// The kill landed while a job was in flight, and the clients dialled
	// the dead server before the transport retargeted.
	t.Logf("restarted server's journal: %+v", *st.Journal)
	if st.Journal.Recovered < 1 {
		t.Fatalf("restarted server recovered no in-flight job: %+v", st.Journal)
	}
	if ft.errs.Load() < 1 {
		t.Fatalf("no dial was refused while the server was down (faults: %v)", ft)
	}
}
