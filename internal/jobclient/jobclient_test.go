package jobclient

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/stubby-mr/stubby/internal/planio"
)

// streamLines is the job's full event log: the NDJSON line index is the
// resume cursor. Line 2 is a type this build does not know.
var streamLines = []string{
	`{"type":"stateChanged","jobId":"j","state":"queued"}`,
	`{"type":"unitStarted","unit":1}`,
	`{"type":"fromTheFuture","gizmo":7}`,
	`{"type":"bestCostImproved","unit":1,"cost":5}`,
	`{"type":"stateChanged","jobId":"j","workflow":"wf","state":"done"}`,
}

var allTypes = []string{"stateChanged", "unitStarted", "fromTheFuture", "bestCostImproved", "stateChanged"}

// conn scripts the server's answer to one connection of the event stream.
type conn struct {
	status     int    // non-zero: answer with this status (an error envelope) instead of a stream
	retryAfter string // Retry-After header on that answer
	upto       int    // send complete lines [from, upto), then...
	torn       int    // ...this many bytes of line upto, then abort the connection
}

// whole is the connection that serves the rest of the stream and ends it
// the way the server does: closed after the terminal event.
var whole = conn{upto: len(streamLines)}

// TestPump drives the one event pump against scripted connections: what it
// emits, where it resumes, and how often it connects.
func TestPump(t *testing.T) {
	policy := &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 30 * time.Millisecond}
	cases := []struct {
		name      string
		policy    *RetryPolicy
		script    []conn
		wantFrom  []int    // ?from= cursor of each connection the server saw
		wantTypes []string // event types emitted, in order
		wantDone  bool     // Pump returned the terminal state change
		minWait   time.Duration
		maxWait   time.Duration
	}{
		{
			name:      "no policy: one connection, the pump ends on the drop",
			script:    []conn{{upto: 2, torn: 20}, whole},
			wantFrom:  []int{0},
			wantTypes: allTypes[:2],
		},
		{
			name:      "policy: a mid-line cut resumes at the cursor, no duplicate and no gap",
			policy:    policy,
			script:    []conn{{upto: 1, torn: 20}, whole},
			wantFrom:  []int{0, 1},
			wantTypes: allTypes,
			wantDone:  true,
		},
		{
			name:      "policy: an unknown event type advances the cursor",
			policy:    policy,
			script:    []conn{{upto: 3}, whole},
			wantFrom:  []int{0, 3},
			wantTypes: allTypes,
			wantDone:  true,
		},
		{
			name:      "policy: Retry-After is honoured over the backoff and capped at MaxDelay",
			policy:    policy,
			script:    []conn{{status: http.StatusServiceUnavailable, retryAfter: "1"}, whole},
			wantFrom:  []int{0, 0},
			wantTypes: allTypes,
			wantDone:  true,
			minWait:   policy.MaxDelay, // far above the 1ms backoff: the header was used
			maxWait:   time.Second / 2, // well below the header's 1s: the cap held
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var gotFrom []int
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/jobs/j/events" {
					t.Errorf("unexpected request %s %s", r.Method, r.URL)
				}
				from, _ := strconv.Atoi(r.URL.Query().Get("from"))
				mu.Lock()
				c := tc.script[len(gotFrom)]
				gotFrom = append(gotFrom, from)
				mu.Unlock()
				if c.status != 0 {
					w.Header().Set("Retry-After", c.retryAfter)
					w.WriteHeader(c.status)
					_ = json.NewEncoder(w).Encode(planio.ErrorEnvelope{Error: &planio.ErrorDoc{Kind: "unavailable", Message: "draining"}})
					return
				}
				for _, line := range streamLines[from:c.upto] {
					_, _ = w.Write([]byte(line + "\n"))
				}
				if c.upto < len(streamLines) {
					_, _ = w.Write([]byte(streamLines[c.upto][:c.torn]))
					w.(http.Flusher).Flush()
					panic(http.ErrAbortHandler) // drop the connection mid-stream
				}
			}))
			defer srv.Close()

			tr := New(srv.URL)
			if tc.policy != nil {
				tr.SetRetryPolicy(*tc.policy)
			}
			start := time.Now()
			s, err := tr.Follow(context.Background(), "j")
			if err != nil {
				t.Fatalf("Follow: %v", err)
			}
			var gotTypes []string
			last := s.Pump(context.Background(), func(d *planio.EventDoc) { gotTypes = append(gotTypes, d.Type) })
			waited := time.Since(start)

			if !reflect.DeepEqual(gotTypes, tc.wantTypes) {
				t.Errorf("emitted %q, want %q", gotTypes, tc.wantTypes)
			}
			if !reflect.DeepEqual(gotFrom, tc.wantFrom) {
				t.Errorf("connections resumed at %v, want %v", gotFrom, tc.wantFrom)
			}
			if done := last != nil; done != tc.wantDone {
				t.Errorf("terminal = %+v, want terminal %v", last, tc.wantDone)
			} else if done && (last.State != "done" || last.Workflow != "wf") {
				t.Errorf("terminal = %+v, want the done state change of workflow wf", last)
			}
			m := tr.Metrics()
			if want := uint64(len(tc.wantFrom)); m.Requests != want || m.Retries+m.Resumes != want-1 {
				t.Errorf("metrics = %+v, want %d requests, the rest retries or resumes", m, want)
			}
			if waited < tc.minWait || (tc.maxWait > 0 && waited > tc.maxWait) {
				t.Errorf("took %v, want within [%v, %v]", waited, tc.minWait, tc.maxWait)
			}
		})
	}
}

// TestWaitReportsOutcomeAsStatus: a job that ended failed is Wait's
// answer, not its error — callers that re-dispatch on transport errors
// must be able to tell the two apart.
func TestWaitReportsOutcomeAsStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(planio.EventDoc{Type: planio.EventStateChanged, Workflow: "wf",
			State: "failed", Error: &planio.ErrorDoc{Kind: "internal", Message: "search exploded"}})
	}))
	defer srv.Close()
	st, err := New(srv.URL).Wait(context.Background(), "j")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.ID != "j" || st.State != "failed" || st.Workflow != "wf" || st.Error == nil ||
		!strings.Contains(st.Error.Message, "exploded") {
		t.Fatalf("status = %+v (error %+v), want the failed job's own status", st, st.Error)
	}
}

// TestResultReadsDeclaredLength: a result whose length the server declared
// lands in one buffer of exactly that size; one sent chunked, with no
// length, is still read whole; one cut short of its declared length is a
// transient failure, not a short document.
func TestResultReadsDeclaredLength(t *testing.T) {
	doc := []byte(strings.Repeat(`{"plan":"x"}`, 4096))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/declared/result":
			w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
			_, _ = w.Write(doc)
		case "/v1/jobs/chunked/result":
			_, _ = w.Write(doc[:len(doc)/2])
			w.(http.Flusher).Flush()
			_, _ = w.Write(doc[len(doc)/2:])
		case "/v1/jobs/cut/result":
			w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
			_, _ = w.Write(doc[:len(doc)/2])
			panic(http.ErrAbortHandler)
		}
	}))
	defer srv.Close()
	tr := New(srv.URL)
	ctx := context.Background()
	got, err := tr.Result(ctx, "declared")
	if err != nil || string(got) != string(doc) || cap(got) != len(doc) {
		t.Errorf("declared length: %d bytes in a buffer of %d, err %v; want %d in %d", len(got), cap(got), err, len(doc), len(doc))
	}
	if got, err = tr.Result(ctx, "chunked"); err != nil || string(got) != string(doc) {
		t.Errorf("undeclared length: %d of %d bytes, err %v", len(got), len(doc), err)
	}
	if _, err = tr.Result(ctx, "cut"); !Retryable(err) {
		t.Errorf("body cut short of its declared length: err %v, want a retryable one", err)
	}
}
