package stubby

// journal.go is the public face of the durable job journal (see
// internal/service/journal.go for the on-disk format): OpenJournal +
// WithJournal make a Server crash-safe. Every submission accepted for
// optimization is journaled — verbatim request document, propagated
// deadline, and each lifecycle transition — in an append-only CRC-checked
// log, and a server constructed over a reopened journal re-enqueues exactly
// the jobs that were in flight when the previous process died, under their
// original IDs. Re-executed jobs complete idempotently through the plan
// store (same fingerprint key, byte-identical plan), canceled jobs stay
// canceled, and finished jobs are never resurrected — which is why a
// submission answered on the spot from the plan store leaves no record at
// all: it is born finished, and the journal only resurrects the unfinished.

import (
	"context"
	"time"

	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/service"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
)

// JournalStats snapshots a Journal's counters; see Server.JournalStats.
type JournalStats = service.JournalStats

// Journal is a durable job journal: the persistence layer that lets a
// Server survive a crash with its in-flight jobs intact. Open one with
// OpenJournal and attach it with WithJournal; the caller retains
// ownership and should Close it after the server is done.
type Journal struct {
	j          *service.Journal
	incomplete []service.IncompleteJob
}

// OpenJournal opens (creating if needed) the journal rooted at dir and
// recovers its record of in-flight jobs. Reopening is crash-safe: a torn
// record tail is truncated, corrupt records freeze the scan at the last
// valid one, and the surviving in-flight set is compacted into a fresh
// log. The journal holds an exclusive lock on dir for its lifetime — a
// second live opener fails instead of interleaving appends.
func OpenJournal(dir string) (*Journal, error) {
	j, incomplete, err := service.OpenJournal(dir)
	if err != nil {
		return nil, stubbyerr.WithKind(stubbyerr.KindInternal, "journal", "", err)
	}
	return &Journal{j: j, incomplete: incomplete}, nil
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() JournalStats { return j.j.Stats() }

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.j.Dir() }

// Close releases the journal's log and directory lock.
func (j *Journal) Close() error { return j.j.Close() }

// WithJournal attaches a durable job journal to the server: submissions
// accepted for optimization are journaled before they are acknowledged (one
// the journal refuses is rejected with ErrKindUnavailable instead; one the
// plan store answers on the spot is never journaled), lifecycle
// transitions are appended as they happen, and NewServer re-enqueues the
// journal's incomplete jobs — under their original IDs — before serving
// traffic. A journaled server also deduplicates in-flight submissions: a
// full request document whose resolved (workflow, cluster, planner, seed)
// key matches a live job attaches to that job instead of starting another,
// which is what makes client submit retries idempotent.
func WithJournal(j *Journal) ServerOption {
	return func(s *Server) {
		if j != nil {
			s.journal = j
		}
	}
}

// JournalStats snapshots the attached journal's counters. ok is false
// when the server runs without a journal.
func (s *Server) JournalStats() (stats JournalStats, ok bool) {
	if s.journal == nil {
		return JournalStats{}, false
	}
	return s.journal.Stats(), true
}

// recoverJournaled re-enqueues every journaled job that never reached a
// terminal state, preserving original IDs and deadlines. It runs inside
// NewServer — before the server can accept traffic — so recovered jobs
// are queryable the moment the listener opens; a backlog deeper than the
// queue therefore holds NewServer until workers have made room for its
// tail. Each re-execution is idempotent: the plan store answers repeat
// fingerprints with the stored byte-identical plan, so a job that in fact
// finished just before the crash (its terminal record lost) completes
// again without re-optimizing.
func (s *Server) recoverJournaled() {
	for _, in := range s.journal.incomplete {
		req, err := planio.DecodeRequest(in.Doc)
		if err != nil {
			// The document is unreadable (schema drift, corruption inside a
			// valid CRC frame): journal it failed so it is not re-recovered
			// on every future restart.
			_ = s.journal.j.AppendState(in.ID, service.Failed)
			continue
		}
		oreq := optimizeRequest(req)
		oreq.resumeID = in.ID
		if in.DeadlineUnixMS > 0 {
			// An already-expired deadline still re-enqueues: the job fails
			// promptly with a deadline error, which is the terminal record
			// the journal needs.
			oreq.deadline = time.UnixMilli(in.DeadlineUnixMS)
		}
		// A backlog larger than this incarnation's queue waits here for
		// workers to make room (resumeID): the jobs were accepted, so none is
		// shed.
		h, err := s.sess.Submit(context.Background(), oreq)
		if err != nil {
			_ = s.journal.j.AppendState(in.ID, service.Failed)
			continue
		}
		s.adopt(h)
	}
}

// watch journals h's lifecycle transitions (Running and the terminal
// state; Queued is implied by the submit record) and, once the job is
// terminal, retires its key from the in-flight index.
func (s *Server) watch(h *OptimizeHandle) {
	for ev := range h.Events(context.Background()) {
		sc, ok := ev.(StateChangedEvent)
		if !ok || sc.State == StateQueued {
			continue
		}
		_ = s.journal.j.AppendState(h.ID(), sc.State)
	}
	// The stream closes after the terminal event.
	s.mu.Lock()
	if s.inflight[h.key] == h.ID() {
		delete(s.inflight, h.key)
	}
	s.mu.Unlock()
}
