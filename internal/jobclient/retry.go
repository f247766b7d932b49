package jobclient

// retry.go is the client half of the failure-handling story: an opt-in
// retry policy with exponential backoff, deterministic seeded jitter,
// retry classification over the error taxonomy, and Retry-After honoring.
// The matching server half (journal, in-flight dedup, resumable event
// streams) makes every retried request idempotent, so the policy can be
// aggressive without duplicating work.

import (
	"context"
	"errors"
	"math"
	"strconv"
	"time"

	"github.com/stubby-mr/stubby/internal/stubbyerr"
)

// RetryPolicy configures retries of transient failures: transport errors,
// HTTP 429 (ErrKindOverloaded), HTTP 503 (ErrKindUnavailable), and
// responses cut mid-body. Delays grow exponentially from BaseDelay by
// Multiplier up to MaxDelay, each scaled by a deterministic jitter in
// [0.5, 1.0] drawn from Seed — two clients with different seeds
// desynchronize their retry storms, and a fixed seed replays the exact
// schedule in tests. A server-sent Retry-After header overrides the
// computed delay (capped at MaxDelay, which stays the policy's ceiling).
// Errors that retrying cannot fix — ErrKindInvalid, ErrKindNotFound,
// ErrKindConflict, and the other terminal kinds — are returned
// immediately.
//
// The zero value of each field selects a default (4 attempts, 50ms base,
// 2s cap, 2x growth); a client without a policy never retries.
type RetryPolicy struct {
	// MaxAttempts bounds total tries, the first included (default 4).
	MaxAttempts int
	// BaseDelay is the pre-jitter delay before the first retry (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps every delay, Retry-After included (default 2s).
	MaxDelay time.Duration
	// Multiplier grows the delay per retry (default 2; values < 1 reset to 2).
	Multiplier float64
	// Seed drives the deterministic jitter sequence.
	Seed int64
}

// SetRetryPolicy enables retries under p (zero fields take defaults).
func (t *Transport) SetRetryPolicy(p RetryPolicy) {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	t.retry = &p
}

// retryMix is splitmix64's finalizer — the repo's standard counter-based
// deterministic draw (mrsim's fault model).
func retryMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoff computes the delay before retry number `attempt` (0-based):
// exponential growth, capped, jittered into [0.5, 1.0]× deterministically.
func (t *Transport) backoff(attempt int) time.Duration {
	p := t.retry
	d := float64(p.BaseDelay) * math.Pow(p.Multiplier, float64(attempt))
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	h := retryMix(retryMix(uint64(p.Seed)) ^ t.jitterSeq.Add(1))
	frac := 0.5 + 0.5*float64(h>>11)/float64(1<<53)
	return time.Duration(d * frac)
}

// retryDelay resolves the wait before the next attempt: the server's
// Retry-After when it sent one (capped at MaxDelay), the backoff schedule
// otherwise.
func (t *Transport) retryDelay(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		if retryAfter > t.retry.MaxDelay {
			return t.retry.MaxDelay
		}
		return retryAfter
	}
	return t.backoff(attempt)
}

// Retryable classifies err against the taxonomy: overload and
// unavailability are transient by definition; internal errors (which is
// also where a mid-body connection cut surfaces after decode) are worth
// re-trying against an idempotent server; everything else — invalid input,
// unknown job, conflict, cancellation, expired deadline — is terminal.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, stubbyerr.KindOverloaded) ||
		errors.Is(err, stubbyerr.KindUnavailable) ||
		errors.Is(err, stubbyerr.KindInternal)
}

// parseRetryAfter reads an integer-seconds Retry-After value (the only
// form the service emits); anything else is no hint.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleepCtx sleeps d unless ctx ends first, reporting whether it slept.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// retryLoop is the one attempt/backoff loop: it runs attempt until it
// succeeds, fails with an error Retryable rejects, ctx ends, or the
// policy's attempts are spent. attempt reports the server's Retry-After
// hint (0 for none) alongside its error. Without a policy it degrades to
// exactly one attempt.
func (t *Transport) retryLoop(ctx context.Context, attempt func() (retryAfter time.Duration, err error)) error {
	attempts := 1
	if t.retry != nil {
		attempts = t.retry.MaxAttempts
	}
	for n := 0; ; n++ {
		if n > 0 {
			t.retries.Add(1)
		}
		retryAfter, err := attempt()
		if err == nil || n == attempts-1 || ctx.Err() != nil || !Retryable(err) ||
			!sleepCtx(ctx, t.retryDelay(n, retryAfter)) {
			return err
		}
	}
}
