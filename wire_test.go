package stubby_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/gen"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/wf"
)

// fpOf is the canonical workflow fingerprint used across the wire suites.
func fpOf(t *testing.T, w *stubby.Workflow) string {
	t.Helper()
	if w == nil {
		t.Fatal("nil workflow")
	}
	return wf.FingerprintWorkflow(w).String()
}

// wireGenSeeds is how many generator seeds the round-trip suite covers.
const wireGenSeeds = 10

// profiledGenCase generates and profiles one random workflow.
func profiledGenCase(t *testing.T, seed int64, opt gen.Options) *gen.Case {
	t.Helper()
	c := gen.Generate(seed, opt)
	sess, err := stubby.NewSession(stubby.WithCluster(c.Cluster), stubby.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Profile(context.Background(), c.Workflow, c.DFS); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWireRoundTripFingerprints: encode→decode must reproduce the exact
// canonical fingerprint — structure, configurations, profiles, layouts —
// for every paper workload and ten generated workflows, through all three
// document kinds (plan, optimize-request, optimize-result).
func TestWireRoundTripFingerprints(t *testing.T) {
	type subject struct {
		name    string
		w       *stubby.Workflow
		cluster *stubby.Cluster
	}
	var subjects []subject
	wls := differentialWorkloads(t)
	for _, abbr := range stubby.Workloads() {
		subjects = append(subjects, subject{abbr, wls[abbr].Workflow, wls[abbr].Cluster})
	}
	for seed := int64(1); seed <= wireGenSeeds; seed++ {
		c := profiledGenCase(t, seed, gen.Options{})
		subjects = append(subjects, subject{fmt.Sprintf("gen-%d", seed), c.Workflow, c.Cluster})
	}

	for _, sub := range subjects {
		sub := sub
		t.Run(sub.name, func(t *testing.T) {
			want := fpOf(t, sub.w)

			// Plan document.
			data, err := planio.Encode(sub.w)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := planio.DecodeStructure(data)
			if err != nil {
				t.Fatal(err)
			}
			if got := fpOf(t, decoded); got != want {
				t.Errorf("plan doc round trip changed fingerprint: %s -> %s", want, got)
			}

			// Request document (planner + seed + cluster survive too).
			reqData, err := planio.EncodeRequest(&planio.Request{
				Planner: "stubby", Seed: 7, Cluster: sub.cluster, Plan: sub.w,
			})
			if err != nil {
				t.Fatal(err)
			}
			req, err := planio.DecodeRequest(reqData)
			if err != nil {
				t.Fatal(err)
			}
			if got := fpOf(t, req.Plan); got != want {
				t.Errorf("request doc round trip changed fingerprint: %s -> %s", want, got)
			}
			if req.Planner != "stubby" || req.Seed != 7 {
				t.Errorf("request metadata lost: %+v", req)
			}
			if req.Cluster == nil || *req.Cluster != *sub.cluster {
				t.Errorf("request cluster lost: %+v", req.Cluster)
			}

			// Result document, including the fingerprint integrity check.
			resData, err := planio.EncodeResult(&planio.Result{
				Plan: sub.w, EstimatedCost: 123.5, DurationMS: 42,
				WhatIfCalls: 10, WhatIfComputed: 3, FlowCards: 17,
				Fingerprint: want,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := planio.DecodeResult(resData)
			if err != nil {
				t.Fatal(err)
			}
			if got := fpOf(t, res.Plan); got != want {
				t.Errorf("result doc round trip changed fingerprint: %s -> %s", want, got)
			}
			if res.EstimatedCost != 123.5 || res.WhatIfCalls != 10 ||
				res.WhatIfComputed != 3 || res.FlowCards != 17 {
				t.Errorf("result metadata lost: %+v", res)
			}
		})
	}
}

// TestWireResultFingerprintMismatchRejected: a result document whose plan
// was tampered with fails the integrity check on decode.
func TestWireResultFingerprintMismatchRejected(t *testing.T) {
	c := profiledGenCase(t, 1, gen.Options{})
	data, err := planio.EncodeResult(&planio.Result{
		Plan:        c.Workflow,
		Fingerprint: "0000000000000000AAAAAAAAAAAAAAAA",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := planio.DecodeResult(data); err == nil {
		t.Fatal("tampered result decoded without error")
	}
}

// TestWireGoldens locks the wire bytes of request and result documents for
// two generator seeds into golden files: any schema drift — renamed
// fields, changed defaults, reordered sections — is an explicit diff.
// Like the plan snapshots, -update is forbidden in CI.
func TestWireGoldens(t *testing.T) {
	if *update && os.Getenv("CI") != "" {
		t.Fatal("-update is forbidden in CI: regenerate wire goldens locally and commit the diff")
	}
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Smaller cases than the round-trip sweep: goldens are for
			// schema drift, and compact documents make reviewable diffs.
			c := profiledGenCase(t, seed, gen.Options{MaxJobs: 4, Records: 120})
			reqData, err := planio.EncodeRequest(&planio.Request{
				Planner: "stubby", Seed: seed, Cluster: c.Cluster, Plan: c.Workflow,
			})
			if err != nil {
				t.Fatal(err)
			}
			resData, err := planio.EncodeResult(&planio.Result{
				Plan: c.Workflow, EstimatedCost: 123.456, DurationMS: 12.5,
				WhatIfCalls: 42, WhatIfComputed: 7, FlowCards: 99,
				Fingerprint: fpOf(t, c.Workflow),
			})
			if err != nil {
				t.Fatal(err)
			}
			// The encoders write compact JSON; the goldens hold the same
			// documents indented (MarshalIndent is Marshal + Indent), which
			// keeps schema diffs reviewable.
			checkGolden(t, filepath.Join("testdata", "wire", fmt.Sprintf("request-seed-%02d.golden", seed)), indentJSON(t, reqData))
			checkGolden(t, filepath.Join("testdata", "wire", fmt.Sprintf("result-seed-%02d.golden", seed)), indentJSON(t, resData))
		})
	}
}

func indentJSON(t *testing.T, doc []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, doc, "", "  "); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if string(want) != string(got) {
		t.Errorf("wire document drifted from golden %s.\n"+
			"If the change is intended, regenerate with:\n"+
			"\tgo test -run TestWireGoldens -update .\nand commit the diff.", path)
	}
}

// serviceFixture stands up a stubbyd server (real HTTP listener) over a
// fresh session and returns a client for it.
func serviceFixture(t *testing.T, opts ...stubby.SessionOption) (*stubby.Session, *httptest.Server, *stubby.Client) {
	t.Helper()
	base := []stubby.SessionOption{
		stubby.WithSeed(1),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: differentialRRSEvals}),
	}
	sess, err := stubby.NewSession(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(stubby.NewServer(sess))
	t.Cleanup(func() {
		hs.Close()
		_ = sess.Close(context.Background())
	})
	client, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return sess, hs, client
}

// inProcessPlan optimizes wl in-process with exactly the options the
// service fixture uses, returning the plan fingerprint.
func inProcessPlan(t *testing.T, wl *stubby.Workload) string {
	t.Helper()
	res := optimizeWith(t, wl, "stubby", nil, 1)
	return fpOf(t, res.Plan)
}

// TestServiceE2ESmokeBR is the end-to-end smoke of the acceptance
// criteria: start a server, submit the profiled BR workload over HTTP,
// stream its events, and assert the returned plan is fingerprint-identical
// to the in-process Session.Optimize plan.
func TestServiceE2ESmokeBR(t *testing.T) {
	wl := differentialWorkloads(t)["BR"]
	_, _, client := serviceFixture(t)
	ctx := context.Background()

	job, err := client.Submit(ctx, stubby.OptimizeRequest{
		Workflow: wl.Workflow, Planner: "stubby", Seed: 1, Cluster: wl.Cluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := job.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var states []stubby.JobState
	units := 0
	for ev := range events {
		switch e := ev.(type) {
		case stubby.StateChangedEvent:
			states = append(states, e.State)
		case stubby.UnitStartedEvent:
			units++
		}
	}
	if len(states) == 0 || states[len(states)-1] != stubby.StateDone {
		t.Fatalf("streamed states %v, want trailing done", states)
	}
	if units == 0 {
		t.Fatal("no UnitStarted events streamed over HTTP")
	}
	res, err := job.Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fpOf(t, res.Plan), inProcessPlan(t, wl); got != want {
		t.Fatalf("remote BR plan fingerprint %s != in-process %s", got, want)
	}
	status, err := job.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.State() != stubby.StateDone || status.Progress.Units == 0 {
		t.Fatalf("remote status %+v", status)
	}
}

// TestWireParityAllWorkloads: for every paper workload, the plan returned
// by stubby.Client through stubbyd is fingerprint-identical to
// Session.Optimize's plan (the cluster travels in the request).
func TestWireParityAllWorkloads(t *testing.T) {
	wls := differentialWorkloads(t)
	_, _, client := serviceFixture(t)
	ctx := context.Background()
	for _, abbr := range stubby.Workloads() {
		abbr := abbr
		t.Run(abbr, func(t *testing.T) {
			wl := wls[abbr]
			job, err := client.Submit(ctx, stubby.OptimizeRequest{
				Workflow: wl.Workflow, Planner: "stubby", Seed: 1, Cluster: wl.Cluster,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fpOf(t, res.Plan), inProcessPlan(t, wl); got != want {
				t.Errorf("remote %s plan fingerprint %s != in-process %s", abbr, got, want)
			}
			if res.EstimatedCost <= 0 || res.WhatIfCalls == 0 {
				t.Errorf("remote %s result missing cost/counters: %+v", abbr, res)
			}
		})
	}
}

// TestRemoteCancelMidFlightNoLeak: canceling over HTTP transitions the
// job to canceled, Wait surfaces ErrKindCanceled, and no goroutines leak
// (runs under -race in CI).
func TestRemoteCancelMidFlightNoLeak(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, hs, client := serviceFixture(t, stubby.WithParallelism(1), stubby.WithQueueDepth(4))
	started, release := registerBlocking(t, sess)
	defer close(release)
	ctx := context.Background()

	baseline := runtime.NumGoroutine()
	job, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // mid-flight: the search is parked inside the planner
	waitc := make(chan error, 1)
	go func() {
		_, err := job.Wait(ctx)
		waitc <- err
	}()
	status, err := job.Cancel(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-waitc; !errors.Is(werr, stubby.ErrKindCanceled) {
		t.Fatalf("Wait after remote cancel = %v, want ErrKindCanceled", werr)
	}
	status, err = job.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.State() != stubby.StateCanceled {
		t.Fatalf("remote state after cancel = %v, want canceled", status.State())
	}
	if !errors.Is(status.Err, stubby.ErrKindCanceled) {
		t.Fatalf("remote status error = %v, want ErrKindCanceled", status.Err)
	}
	// Everything spun up for the canceled job must unwind.
	hs.Client().CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutinesBelow(t, baseline)
}

// TestRemoteOverloadTyped: submissions beyond the admission queue are
// shed with ErrKindOverloaded through the full HTTP round trip (429).
func TestRemoteOverloadTyped(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, _, client := serviceFixture(t, stubby.WithParallelism(1), stubby.WithQueueDepth(1))
	started, release := registerBlocking(t, sess)
	ctx := context.Background()
	req := stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking"}

	j1, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	j2, err := client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Submit(ctx, req)
	if !errors.Is(err, stubby.ErrKindOverloaded) {
		t.Fatalf("third remote submit = %v, want ErrKindOverloaded", err)
	}
	var se *stubby.Error
	if !errors.As(err, &se) {
		t.Fatalf("remote overload error is not *stubby.Error: %v", err)
	}
	close(release)
	for _, j := range []*stubby.RemoteJob{j1, j2} {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// legacyRequestBody renders req the way a client built before the
// estimation-mode knob was retired could: the current document, indented
// as those clients wrote it, plus a top-level "disableIncremental": true
// member.
func legacyRequestBody(t *testing.T, req *planio.Request) []byte {
	t.Helper()
	body, err := planio.EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(body, []byte("disableIncremental")) {
		t.Fatal("EncodeRequest emitted the retired disableIncremental member")
	}
	body = indentJSON(t, body)
	legacy := bytes.Replace(body, []byte(`"version": 1,`),
		[]byte("\"version\": 1,\n  \"disableIncremental\": true,"), 1)
	if bytes.Equal(legacy, body) {
		t.Fatal("request document head changed; update legacyRequestBody")
	}
	return legacy
}

// postJob submits a raw request document and returns the assigned job ID.
func postJob(t *testing.T, baseURL string, body []byte) string {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub planio.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %s, %+v, %v", resp.Status, sub, err)
	}
	return sub.ID
}

// TestWireLegacyDisableIncrementalIgnored: version-1 request documents
// written while the wire carried an estimation-mode knob still decode (the
// decoder rejects unknown members, so the member must stay declared), the
// member changes nothing — same decoded request, byte-identical plan, same
// amount of estimation work — and it is never emitted again.
func TestWireLegacyDisableIncrementalIgnored(t *testing.T) {
	wl := differentialWorkloads(t)["IR"]
	req := &planio.Request{Planner: "stubby", Seed: 1, Cluster: wl.Cluster, Plan: wl.Workflow}
	legacy := legacyRequestBody(t, req)

	decoded, err := planio.DecodeRequest(legacy)
	if err != nil {
		t.Fatalf("legacy request document rejected: %v", err)
	}
	again, err := planio.EncodeRequest(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(again, []byte("disableIncremental")) {
		t.Fatal("re-encoding a legacy request emitted disableIncremental")
	}
	if decoded.Planner != req.Planner || decoded.Seed != req.Seed || fpOf(t, decoded.Plan) != fpOf(t, req.Plan) {
		t.Fatalf("legacy member changed the decoded request: %+v", decoded)
	}

	_, hs, client := serviceFixture(t)
	ctx := context.Background()
	fromLegacy, err := client.Job(postJob(t, hs.URL, legacy)).Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	job, err := client.Submit(ctx, stubby.OptimizeRequest{
		Workflow: wl.Workflow, Planner: "stubby", Seed: 1, Cluster: wl.Cluster,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePlan(t, plain, fromLegacy)
	if plain.FlowCards != fromLegacy.FlowCards {
		t.Fatalf("legacy member still selects an estimation mode: %d vs %d flow cards",
			fromLegacy.FlowCards, plain.FlowCards)
	}
}

// TestServerJobRetention: finished jobs beyond the retention bound are
// forgotten oldest-first; recent ones stay queryable.
func TestServerJobRetention(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, err := stubby.NewSession(stubby.WithParallelism(1), stubby.WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(stubby.SetJobRetention(stubby.NewServer(sess), 2))
	defer hs.Close()
	defer sess.Close(context.Background())
	client, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var jobs []*stubby.RemoteJob
	for i := 0; i < 5; i++ {
		job, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "baseline"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	// Submitting job 5 saw four finished jobs and pruned down to two.
	for _, j := range jobs[:2] {
		if _, err := j.Status(ctx); !errors.Is(err, stubby.ErrKindNotFound) {
			t.Fatalf("evicted job %s status = %v, want ErrKindNotFound", j.ID(), err)
		}
	}
	for _, j := range jobs[2:] {
		if _, err := j.Status(ctx); err != nil {
			t.Fatalf("retained job %s status = %v", j.ID(), err)
		}
	}
}

// TestServerDrain: a draining server rejects new submissions with
// ErrKindUnavailable (503) while admitted jobs finish, and a drain
// deadline force-cancels parked jobs instead of hanging.
func TestServerDrain(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, err := stubby.NewSession(stubby.WithParallelism(1), stubby.WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	started, release := registerBlocking(t, sess)
	defer close(release)
	srv := stubby.NewServer(sess)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client, err := stubby.NewClient(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	job, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is parked; a zero-deadline drain must force-cancel it
	drainCtx, cancel := context.WithCancel(ctx)
	cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("forced drain = %v", err)
	}
	status, err := job.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.State() != stubby.StateCanceled {
		t.Fatalf("parked job after forced drain = %v, want canceled", status.State())
	}
	if _, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow}); !errors.Is(err, stubby.ErrKindUnavailable) {
		t.Fatalf("submit to draining server = %v, want ErrKindUnavailable", err)
	}
}

// TestRemoteErrorTaxonomy: the remaining wire error paths carry their
// kinds — invalid documents, unknown jobs, results before completion.
func TestRemoteErrorTaxonomy(t *testing.T) {
	wl := tinyWorkload(t, "IR")
	sess, hs, client := serviceFixture(t, stubby.WithParallelism(1), stubby.WithQueueDepth(4))
	started, release := registerBlocking(t, sess)
	defer close(release)
	ctx := context.Background()

	// Unknown job IDs: not found.
	if _, err := client.Job("job-999").Status(ctx); !errors.Is(err, stubby.ErrKindNotFound) {
		t.Fatalf("unknown job = %v, want ErrKindNotFound", err)
	}
	// Garbage documents: invalid.
	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage submit status = %d, want 400", resp.StatusCode)
	}
	// Result before completion: conflict.
	job, err := client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "blocking"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := job.Result(ctx); !errors.Is(err, stubby.ErrKindConflict) {
		t.Fatalf("early result = %v, want ErrKindConflict", err)
	}
	// Unknown planner: typed through the wire.
	_, err = client.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow, Planner: "nope"})
	if !errors.Is(err, stubby.ErrKindUnknownPlanner) {
		t.Fatalf("unknown planner = %v, want ErrKindUnknownPlanner", err)
	}
}
