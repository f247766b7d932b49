package stubby

import (
	"context"
	"errors"

	"github.com/stubby-mr/stubby/internal/jobclient"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
)

// RetryPolicy configures Client-side retries of transient failures:
// transport errors, HTTP 429 (ErrKindOverloaded), HTTP 503
// (ErrKindUnavailable), and responses cut mid-body — exponential backoff
// from BaseDelay by Multiplier up to MaxDelay with deterministic jitter
// drawn from Seed, at most MaxAttempts tries, a server-sent Retry-After
// honored (capped at MaxDelay). The zero value of each field selects a
// default (4 attempts, 50ms base, 2s cap, 2x growth); a Client without
// WithRetryPolicy never retries.
type RetryPolicy = jobclient.RetryPolicy

// WithRetryPolicy enables retries on the client under p (zero fields take
// defaults). Retries are safe against a journaled server: submissions
// deduplicate on their request fingerprint server-side, and every other
// route is naturally idempotent.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) { c.t.SetRetryPolicy(p) }
}

// ClientMetrics counts a Client's wire activity since construction: HTTP
// requests issued (retries included), re-issued requests, and event-stream
// reconnects that resumed at a cursor.
type ClientMetrics = jobclient.Metrics

// Metrics snapshots the client's request/retry/resume counters.
func (c *Client) Metrics() ClientMetrics { return c.t.Metrics() }

// Optimize submits req and waits for its outcome — the one-call remote
// counterpart of Session.Optimize. If the job vanished across a server
// restart (ErrKindNotFound: it was canceled before the crash, so recovery
// rightly did not re-enqueue it), the request is resubmitted once;
// submissions are idempotent through the server's plan store, so the
// retry converges to the same plan.
func (c *Client) Optimize(ctx context.Context, req OptimizeRequest) (*Result, error) {
	job, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	res, err := job.Wait(ctx)
	if err != nil && errors.Is(err, stubbyerr.KindNotFound) && ctx.Err() == nil {
		job, err = c.Submit(ctx, req)
		if err != nil {
			return nil, err
		}
		return job.Wait(ctx)
	}
	return res, err
}
