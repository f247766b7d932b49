// Package jobclient is the one place that knows how to talk to a stubbyd
// job API at the document level: it issues the requests (deadline
// propagation, request counting), retries transient failures under an
// opt-in policy, and speaks the five /v1/jobs routes in wire documents —
// encoded request bytes in, planio status and event documents and verbatim
// result bytes out. Errors reconstruct the server's taxonomy, so
// errors.Is(err, stubbyerr.KindOverloaded) works on everything it returns.
//
// Two callers sit on it. The public stubby.Client is the typed veneer
// (workflow encoding, typed events, decoded results); the cluster
// coordinator is a client of its workers and dispatches through the same
// transport with no retry policy, re-dispatching elsewhere on exactly the
// failures Retryable names.
//
// The transport moves documents and never looks inside them. Which request
// document to post — the key-first one that names the plan by fingerprint,
// or, after a KindNotFound "plan required" answer, the full one — is the
// caller's decision (stubby.Client.Submit makes it; the coordinator
// forwards whichever it was given), and a result document comes back as
// the bytes the server wrote, read into one buffer of the declared length.
package jobclient

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
)

// DeadlineHeader carries a submission's remaining time budget (integer
// milliseconds) from client to server; the server turns it into an
// absolute execution deadline on the job (and journals it, so a recovered
// job keeps its deadline).
const DeadlineHeader = "X-Stubby-Deadline-MS"

// Transport talks to the stubbyd server at one base URL. Configure it
// (SetHTTPClient, SetRetryPolicy) before first use; after that it is safe
// for concurrent use.
type Transport struct {
	base  string
	hc    *http.Client
	retry *RetryPolicy

	requests  atomic.Uint64
	retries   atomic.Uint64
	resumes   atomic.Uint64
	jitterSeq atomic.Uint64
}

// New builds a transport for the server at base (e.g.
// "http://localhost:8080", no trailing slash) over http.DefaultClient with
// no retry policy.
func New(base string) *Transport {
	return &Transport{base: base, hc: http.DefaultClient}
}

// SetHTTPClient replaces the underlying *http.Client.
func (t *Transport) SetHTTPClient(hc *http.Client) { t.hc = hc }

// Metrics counts a transport's wire activity since construction.
type Metrics struct {
	// Requests counts HTTP requests issued (retries included).
	Requests uint64
	// Retries counts re-issued requests (Requests - Retries = first tries).
	Retries uint64
	// Resumes counts event-stream reconnects that resumed at a cursor.
	Resumes uint64
}

// Metrics snapshots the request/retry/resume counters.
func (t *Transport) Metrics() Metrics {
	return Metrics{
		Requests: t.requests.Load(),
		Retries:  t.retries.Load(),
		Resumes:  t.resumes.Load(),
	}
}

// decodeHTTPError turns a non-2xx response into the server's structured
// error. Bodies that are not error envelopes degrade to ErrKindInternal.
func decodeHTTPError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env planio.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil {
		return env.Error.Err()
	}
	return stubbyerr.New(stubbyerr.KindInternal, "http", "", "",
		"%s: %s", resp.Status, strings.TrimSpace(string(body)))
}

// do issues one request and returns the open 2xx response. Anything else —
// a transport failure, or a non-2xx status decoded into the server's
// structured error — comes back as the error, with the server's
// Retry-After hint when it sent one.
func (t *Transport) do(ctx context.Context, method, path string, body []byte) (*http.Response, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, rd)
	if err != nil {
		return nil, 0, stubbyerr.WithKind(stubbyerr.KindInvalid, "http", "", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's deadline so the server can bound the job's
	// execution instead of computing a plan nobody is waiting for.
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	t.requests.Add(1)
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, 0, stubbyerr.WithKind(stubbyerr.KindUnavailable, "http", "", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, parseRetryAfter(resp.Header.Get("Retry-After")), decodeHTTPError(resp)
	}
	return resp, 0, nil
}

// exchange runs one idempotent exchange under the retry policy: issue the
// request and hand a 2xx response to fn. fn owns only the response body's
// content, not its closing; an error from fn is classified and retried
// like any other.
func (t *Transport) exchange(ctx context.Context, method, path string, body []byte, fn func(*http.Response) error) error {
	return t.retryLoop(ctx, func() (time.Duration, error) {
		resp, retryAfter, err := t.do(ctx, method, path, body)
		if err != nil {
			return retryAfter, err
		}
		defer resp.Body.Close()
		return 0, fn(resp)
	})
}

// JSON runs one exchange whose 2xx body is a JSON document decoded into
// `into`; op names the operation in a decode failure. It serves the job
// routes below and the service's other JSON endpoints (/statsz, the
// cluster control plane).
func (t *Transport) JSON(ctx context.Context, op, method, path string, body []byte, into any) error {
	return t.exchange(ctx, method, path, body, func(resp *http.Response) error {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			return stubbyerr.WithKind(stubbyerr.KindInternal, op, "", err)
		}
		return nil
	})
}

func jobPath(id, suffix string) string { return "/v1/jobs/" + url.PathEscape(id) + suffix }

// Submit posts an encoded optimize-request document and returns the
// server-assigned job ID. Overload and drain rejections surface as
// KindOverloaded / KindUnavailable.
func (t *Transport) Submit(ctx context.Context, body []byte) (string, error) {
	var ack planio.SubmitResponse
	if err := t.JSON(ctx, "submit", http.MethodPost, "/v1/jobs", body, &ack); err != nil {
		return "", err
	}
	return ack.ID, nil
}

// Status fetches the job's status document.
func (t *Transport) Status(ctx context.Context, id string) (*planio.StatusDoc, error) {
	var doc planio.StatusDoc
	if err := t.JSON(ctx, "status", http.MethodGet, jobPath(id, ""), nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Cancel requests cancellation and returns the status observed after the
// request. Cancellation is idempotent, so retrying it is safe.
func (t *Transport) Cancel(ctx context.Context, id string) (*planio.StatusDoc, error) {
	var doc planio.StatusDoc
	if err := t.JSON(ctx, "status", http.MethodPost, jobPath(id, "/cancel"), nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// ReadBody reads a message body to its end. A body whose length n the peer
// declared (n >= 0) lands in one buffer of that size; io.ReadAll, the
// fallback for an undeclared length, grows its buffer by doubling and so
// allocates several times a megabyte document's size.
func ReadBody(r io.Reader, n int64) ([]byte, error) {
	if n < 0 {
		return io.ReadAll(r)
	}
	body := make([]byte, n)
	_, err := io.ReadFull(r, body)
	return body, err
}

// Result fetches the finished job's encoded result document verbatim. An
// unfinished job yields KindConflict; a failed or canceled one yields its
// structured error.
func (t *Transport) Result(ctx context.Context, id string) ([]byte, error) {
	var data []byte
	err := t.exchange(ctx, http.MethodGet, jobPath(id, "/result"), nil, func(resp *http.Response) error {
		var err error
		if data, err = ReadBody(resp.Body, resp.ContentLength); err != nil {
			// A cut mid-body is transient: the journal-era server will
			// serve the identical document again.
			return stubbyerr.WithKind(stubbyerr.KindUnavailable, "result", "", err)
		}
		return nil
	})
	return data, err
}
