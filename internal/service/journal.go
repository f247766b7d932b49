package service

// journal.go implements the durable job journal behind a crash-safe
// stubbyd: an append-only, CRC-checked log of every submission's request
// document and subsequent lifecycle transitions. Reopening the journal
// after a crash yields the set of jobs that were admitted but never
// reached a terminal state, so the server can re-enqueue exactly those —
// completed jobs are never resurrected, canceled jobs stay canceled, and
// re-executed jobs complete idempotently through the plan store.
//
// # On-disk layout
//
// A journal directory holds one live log, its lock, and (transiently) the
// compaction temp file:
//
//	dir/
//	  journal.log       append-only framelog records, single writer
//	  journal.lock      the writer's flock, stable across rewrites
//	  journal.log.tmp   compaction scratch, published via rename
//
// Records are framelog frames (see internal/framelog for the record
// discipline, recovery and locking) with magic "SJNL", no key, kinds
// jrnKindSubmit and jrnKindState, and a JSON JournalRecord as payload. A
// record that frames correctly but does not decode to a JournalRecord with
// an ID is treated as corruption too. Open compacts the surviving records
// into a fresh log, which both truncates any damage physically and drops
// records of jobs that already finished, so the journal stays proportional
// to the in-flight set rather than to history.

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/stubby-mr/stubby/internal/framelog"
	"github.com/stubby-mr/stubby/internal/stats"
)

const (
	jrnKindSubmit = 1
	jrnKindState  = 2

	jrnFile = "journal.log"

	// Live-compaction defaults (SetCompactionThresholds overrides): compact
	// once this many jobs reached a terminal state since the last
	// compaction, or once the log grows past this many bytes with anything
	// droppable in it. Reopen-only compaction let a long-lived server's log
	// grow with history instead of with the in-flight set.
	defaultCompactEvery = 256
	defaultCompactBytes = 8 << 20
)

var jrnFormat = framelog.Format{Magic: 0x534a4e4c, Kinds: jrnKindState}

// JournalRecord is the JSON payload of one journal record. Submit records
// carry the request document and, when the submitter propagated one, the
// absolute deadline; state records carry the transition.
type JournalRecord struct {
	// ID is the job's server-assigned identifier.
	ID string `json:"id"`
	// State is the transition a state record logs ("running", "done",
	// "failed", "canceled"); empty on submit records.
	State string `json:"state,omitempty"`
	// Doc is the verbatim optimize-request document of a submit record.
	Doc json.RawMessage `json:"doc,omitempty"`
	// DeadlineUnixMS is the job's absolute deadline in Unix milliseconds
	// (0 = none), journaled so a recovered job keeps its deadline.
	DeadlineUnixMS int64 `json:"deadlineUnixMS,omitempty"`
}

// IncompleteJob is one journaled job that never reached a terminal state:
// the unit of restart recovery.
type IncompleteJob struct {
	// ID is the job's original identifier, preserved across the restart so
	// clients polling it reconnect to the recovered job.
	ID string
	// Doc is the submission's verbatim request document.
	Doc []byte
	// DeadlineUnixMS is the journaled absolute deadline (0 = none).
	DeadlineUnixMS int64
}

// JournalStats is a point-in-time snapshot of journal activity, declared
// in internal/stats.
type JournalStats = stats.Journal

// Journal is a single-writer durable job journal. All methods are safe
// for concurrent use; Append* calls from concurrent submissions serialize
// on an internal mutex, preserving a total record order.
type Journal struct {
	dir string

	mu  sync.Mutex
	log *framelog.Log

	// Live-compaction state, all guarded by mu: the in-flight jobs' submit
	// records (what a compaction must preserve), how much droppable history
	// has accumulated, and the thresholds that trigger a rewrite.
	live          map[string]*liveJob
	nextOrder     int
	recordsInLog  int // records in the log file (live + droppable)
	terminalSince int // terminal transitions since the last compaction
	compactEvery  int
	compactBytes  int64

	submits      atomic.Uint64
	transitions  atomic.Uint64
	bytesWritten atomic.Uint64
	errs         atomic.Uint64
	compactions  atomic.Uint64
	recovered    int
	compacted    int
	tornBytes    int64
}

// liveJob is the retained submit record of one not-yet-terminal job.
type liveJob struct {
	doc      json.RawMessage
	deadline int64
	order    int
}

// OpenJournal opens (creating if needed) the journal rooted at dir,
// recovers its record of in-flight jobs, and compacts the log. The
// returned incomplete jobs are in original submission order. The journal
// holds journal.lock for its lifetime; a second live opener fails rather
// than interleaving appends.
func OpenJournal(dir string) (*Journal, []IncompleteJob, error) {
	log, err := framelog.Open(dir, jrnFile, jrnFormat)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, log: log,
		live:         make(map[string]*liveJob),
		compactEvery: defaultCompactEvery,
		compactBytes: defaultCompactBytes,
	}
	fail := func(err error) (*Journal, []IncompleteJob, error) {
		log.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j.tornBytes, err = log.Scan(func(fr framelog.Frame) bool {
		var rec JournalRecord
		if json.Unmarshal(fr.Payload, &rec) != nil || rec.ID == "" {
			return false
		}
		j.replayLocked(&rec)
		return true
	})
	if err != nil {
		return fail(err)
	}
	// Rewriting just the incomplete jobs' submit records is also what
	// physically truncates a torn tail.
	scanned := j.recordsInLog
	incomplete, err := j.rewriteLocked()
	if err != nil {
		return fail(fmt.Errorf("compact: %w", err))
	}
	j.recovered = len(incomplete)
	j.compacted = scanned - len(incomplete)
	return j, incomplete, nil
}

// replayLocked folds one record, scanned at open or just appended, into
// the live set: a submit record adds its job unless already known, a
// terminal state record retires it. Callers hold j.mu.
func (j *Journal) replayLocked(rec *JournalRecord) {
	j.recordsInLog++
	switch {
	case len(rec.Doc) > 0:
		if _, ok := j.live[rec.ID]; !ok {
			j.live[rec.ID] = &liveJob{doc: rec.Doc, deadline: rec.DeadlineUnixMS, order: j.nextOrder}
			j.nextOrder++
		}
	case rec.State != "":
		if st, perr := ParseState(rec.State); perr == nil && st.Terminal() {
			if _, ok := j.live[rec.ID]; ok {
				delete(j.live, rec.ID)
				j.terminalSince++
			}
		}
	}
}

// rewriteLocked rewrites the log to just the live jobs' submit records, in
// submission order, and returns them. A crash or failure at any point
// leaves either the old or the new log whole (framelog.Log.Rewrite).
// Callers hold j.mu.
func (j *Journal) rewriteLocked() ([]IncompleteJob, error) {
	var jobs []IncompleteJob
	for id, lj := range j.live {
		jobs = append(jobs, IncompleteJob{ID: id, Doc: lj.doc, DeadlineUnixMS: lj.deadline})
	}
	sort.Slice(jobs, func(a, b int) bool { return j.live[jobs[a].ID].order < j.live[jobs[b].ID].order })
	var frames []byte
	for _, job := range jobs {
		var err error
		frames, err = appendRecord(frames, jrnKindSubmit, &JournalRecord{ID: job.ID, Doc: job.Doc, DeadlineUnixMS: job.DeadlineUnixMS})
		if err != nil {
			return nil, err
		}
	}
	if err := j.log.Rewrite(frames); err != nil {
		return nil, err
	}
	j.recordsInLog = len(jobs)
	j.terminalSince = 0
	return jobs, nil
}

// appendRecord frames one record onto dst.
func appendRecord(dst []byte, kind byte, rec *JournalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return dst, err
	}
	return jrnFormat.AppendFrame(dst, kind, nil, payload)
}

// append frames one record and makes it durable before returning, so an
// acknowledged submission survives an immediate SIGKILL.
func (j *Journal) append(kind byte, rec *JournalRecord) error {
	frame, err := appendRecord(nil, kind, rec)
	if err != nil {
		j.errs.Add(1)
		return fmt.Errorf("journal: encode: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(frame); err != nil {
		j.errs.Add(1)
		return fmt.Errorf("journal: append: %w", err)
	}
	j.bytesWritten.Add(uint64(len(frame)))
	j.replayLocked(rec)
	if j.shouldCompactLocked() {
		j.compactLocked()
	}
	return nil
}

// shouldCompactLocked decides whether the log has accumulated enough
// droppable history to rewrite. Callers hold j.mu. The recordsInLog guard
// keeps a log of purely live submit records from rewriting itself on every
// append once past the byte threshold — compaction must be able to shrink.
func (j *Journal) shouldCompactLocked() bool {
	if j.recordsInLog <= len(j.live) {
		return false
	}
	return j.terminalSince >= j.compactEvery ||
		(j.compactBytes > 0 && j.log.Size() >= j.compactBytes)
}

// compactLocked is the live (threshold-triggered) compaction. A failure
// counts as an Error and leaves the current log appendable — unless the
// rewrite got as far as renaming and then could not reopen, which closes
// the journal (appends then error rather than landing on a stale inode).
// Callers hold j.mu.
func (j *Journal) compactLocked() {
	before := j.recordsInLog
	jobs, err := j.rewriteLocked()
	if err != nil {
		j.errs.Add(1)
		return
	}
	j.compacted += before - len(jobs)
	j.compactions.Add(1)
}

// SetCompactionThresholds tunes live compaction: the log is rewritten to
// just the in-flight submit records once terminalEvery jobs reached a
// terminal state since the last compaction, or once the log exceeds
// maxBytes with droppable records in it. terminalEvery <= 0 restores the
// default; maxBytes <= 0 disables the byte trigger.
func (j *Journal) SetCompactionThresholds(terminalEvery int, maxBytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalEvery <= 0 {
		terminalEvery = defaultCompactEvery
	}
	j.compactEvery = terminalEvery
	j.compactBytes = maxBytes
}

// AppendSubmit journals one admitted submission: its server-assigned ID,
// verbatim request document, and (optional) absolute deadline.
func (j *Journal) AppendSubmit(id string, doc []byte, deadlineUnixMS int64) error {
	err := j.append(jrnKindSubmit, &JournalRecord{ID: id, Doc: doc, DeadlineUnixMS: deadlineUnixMS})
	if err == nil {
		j.submits.Add(1)
	}
	return err
}

// AppendState journals one lifecycle transition.
func (j *Journal) AppendState(id string, state State) error {
	err := j.append(jrnKindState, &JournalRecord{ID: id, State: state.String()})
	if err == nil {
		j.transitions.Add(1)
	}
	return err
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	compacted := j.compacted
	j.mu.Unlock()
	return JournalStats{
		Submits:      j.submits.Load(),
		Transitions:  j.transitions.Load(),
		Recovered:    j.recovered,
		Compacted:    compacted,
		Compactions:  j.compactions.Load(),
		TornBytes:    j.tornBytes,
		BytesWritten: j.bytesWritten.Load(),
		Errors:       j.errs.Load(),
	}
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// Close releases the log and its lock. Appends after Close fail and count
// as Errors.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
