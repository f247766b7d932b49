package jobclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/service"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
)

// Stream is one job's open event stream plus the cursor to resume it at:
// the count of complete NDJSON lines consumed so far, which is exactly the
// server's per-job event sequence number.
type Stream struct {
	t      *Transport
	id     string
	resp   *http.Response
	cursor int
}

// Follow opens the job's event stream from its first event: the server
// replays the full stream from submission, then follows live, and closes
// it after the terminal state change. The caller must Pump the stream.
func (t *Transport) Follow(ctx context.Context, id string) (*Stream, error) {
	s := &Stream{t: t, id: id}
	if err := s.connect(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// connect opens the stream at the cursor, retrying transient connect
// failures under the retry policy (the stream itself, once open, is Pump's
// to drain).
func (s *Stream) connect(ctx context.Context) error {
	path := jobPath(s.id, "/events")
	if s.cursor > 0 {
		path += "?from=" + strconv.Itoa(s.cursor)
	}
	return s.t.retryLoop(ctx, func() (retryAfter time.Duration, err error) {
		s.resp, retryAfter, err = s.t.do(ctx, http.MethodGet, path, nil)
		return retryAfter, err
	})
}

// Pump delivers the stream's event documents to emit (nil discards them),
// in order, each one emit's only for the duration of the call, and returns
// the job's terminal state change — or nil when the stream gave out first:
// ctx ended, or the connection dropped. Without a retry policy the first
// drop ends it. Under one the stream is resumable: a dropped connection
// reconnects with the server's ?from= cursor and the replayed suffix is
// exactly the missed events, no duplicates and no gaps; it gives up after
// MaxAttempts consecutive reconnects that made no progress (e.g. the job
// was recovered by a restarted server whose rebuilt event log is shorter
// than the cursor — Wait then falls back to status polling). Event types
// this build does not know are delivered too; they occupy a slot in the
// server's sequence like any other.
func (s *Stream) Pump(ctx context.Context, emit func(*planio.EventDoc)) *planio.EventDoc {
	stale := 0
	for {
		read, terminal := s.drain(ctx, emit)
		s.cursor += read
		if terminal != nil || ctx.Err() != nil || s.t.retry == nil {
			return terminal
		}
		if read > 0 {
			stale = 0
		} else if stale++; stale >= s.t.retry.MaxAttempts {
			return nil
		}
		if s.connect(ctx) != nil {
			return nil
		}
		s.t.resumes.Add(1)
	}
}

// drain consumes the open connection — the one NDJSON loop. It returns how
// many complete lines it consumed and the terminal state change if the
// stream reached it. A line that fails to unmarshal is a torn tail from a
// mid-line cut: it is not counted, so a resume replays it whole.
func (s *Stream) drain(ctx context.Context, emit func(*planio.EventDoc)) (lines int, terminal *planio.EventDoc) {
	defer s.resp.Body.Close()
	sc := bufio.NewScanner(s.resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var doc planio.EventDoc
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		doc = planio.EventDoc{}
		if err := json.Unmarshal(line, &doc); err != nil {
			return lines, nil
		}
		lines++
		if emit != nil {
			emit(&doc)
		}
		if ctx.Err() != nil {
			return lines, nil
		}
		if doc.Type == planio.EventStateChanged && terminalState(doc.State) {
			last := doc
			terminal = &last
		}
	}
	return lines, terminal
}

func terminalState(v string) bool {
	st, err := service.ParseState(v)
	return err == nil && st.Terminal()
}

// Wait blocks until the job is terminal and returns its final status (ID,
// workflow, state, structured error), following the event stream — one
// long poll, no timer loop. A job that ended failed or canceled is a
// status, not an error; err is ctx's error if it ended first, or the
// transport failure that cut the wait short. Under a retry policy Wait
// survives connection drops and even a server crash/restart: the event
// stream resumes at its cursor, and if the stream cannot be resumed Wait
// degrades to polling Status until the job lands.
func (t *Transport) Wait(ctx context.Context, id string) (*planio.StatusDoc, error) {
	s, err := t.Follow(ctx, id)
	if err != nil {
		return nil, err
	}
	if last := s.Pump(ctx, nil); last != nil {
		return &planio.StatusDoc{ID: id, Workflow: last.Workflow, State: last.State, Error: last.Error}, nil
	}
	// Stream ended without a terminal transition: ctx expired or the
	// connection dropped mid-flight.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if t.retry == nil {
		return nil, stubbyerr.New(stubbyerr.KindUnavailable, "wait", "", "",
			"event stream for job %s ended before the job finished", id)
	}
	// Under a retry policy the stream giving out is not the end: the job is
	// still running somewhere (possibly re-enqueued by a restarted server
	// whose rebuilt event log is shorter than our cursor). Poll status until
	// terminal, riding out transient unavailability.
	for {
		st, err := t.Status(ctx, id)
		if err != nil {
			if !Retryable(err) {
				return nil, err
			}
		} else if terminalState(st.State) {
			return st, nil
		}
		if !sleepCtx(ctx, 50*time.Millisecond) {
			return nil, ctx.Err()
		}
	}
}
