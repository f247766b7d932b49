package stubby_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/planio"
)

// TestServerRetryAfterDerivedFromQueueDepth: the shed response's
// Retry-After header is proportional to the work outstanding — one
// retryPerJob unit per queued or running job — not a hard-coded constant,
// and clamps to [1, 60] whole seconds.
func TestServerRetryAfterDerivedFromQueueDepth(t *testing.T) {
	sess, err := stubby.NewSession(
		stubby.WithSeed(1),
		stubby.WithParallelism(1),
		stubby.WithQueueDepth(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(context.Background())
	started, release := registerBlocking(t, sess)
	defer close(release)

	wl := tinyWorkload(t, "IR")
	submit := func(t *testing.T, url string, seed int64) *http.Response {
		t.Helper()
		// Distinct seeds keep each submission a distinct job.
		body, err := planio.EncodeRequest(&planio.Request{
			Planner: "blocking", Seed: seed, Plan: wl.Workflow,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	srv := stubby.SetRetryAfterPerJob(stubby.NewServer(sess), 2*time.Second)
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// Park one job on the single worker, then fill the depth-3 queue.
	resp := submit(t, hs.URL, 1)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-started
	for seed := int64(2); seed <= 4; seed++ {
		resp := submit(t, hs.URL, seed)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d: %d", seed, resp.StatusCode)
		}
	}

	// Shed: 1 busy + 3 queued at 2s per job → Retry-After: 8.
	shed := submit(t, hs.URL, 99)
	shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", shed.StatusCode)
	}
	if got := shed.Header.Get("Retry-After"); got != "8" {
		t.Errorf("Retry-After = %q, want 8 (4 outstanding jobs x 2s)", got)
	}

	// Same session through a steeper per-job hint: 4 x 45s = 180s clamps
	// to the 60s ceiling.
	steep := httptest.NewServer(stubby.SetRetryAfterPerJob(stubby.NewServer(sess), 45*time.Second))
	defer steep.Close()
	shed = submit(t, steep.URL, 100)
	shed.Body.Close()
	if got := shed.Header.Get("Retry-After"); got != "60" {
		t.Errorf("clamped Retry-After = %q, want 60", got)
	}

	// The hint a server is built with is one second per outstanding job.
	def := httptest.NewServer(stubby.NewServer(sess))
	defer def.Close()
	shed = submit(t, def.URL, 101)
	shed.Body.Close()
	if got := shed.Header.Get("Retry-After"); got != "4" {
		t.Errorf("default Retry-After = %q, want 4 (4 outstanding jobs x 1s)", got)
	}
}

// TestServerRejectsOversizedBody: a submission declaring more than the
// 256 MiB request bound is refused as invalid before any of it is read.
func TestServerRejectsOversizedBody(t *testing.T) {
	sess, err := stubby.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader([]byte("{}")))
	req.ContentLength = 256<<20 + 1
	rec := httptest.NewRecorder()
	stubby.NewServer(sess).ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest || !bytes.Contains(rec.Body.Bytes(), []byte("exceeds 268435456 bytes")) {
		t.Fatalf("oversized submission: %d %s", rec.Code, rec.Body.Bytes())
	}
}
