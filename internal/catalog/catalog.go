// Package catalog implements the durable cross-workflow reuse catalog
// (ReStore-style): a mapping from rooted sub-plan fingerprints
// (wf.SubplanFingerprint) to previously materialized results — the DFS
// dataset the result lives under plus the layout and measured sizes a
// stored-result scan needs for costing. Sessions populate it when a plan
// runs to completion and the optimizer consults it to replace a matched
// sub-DAG with a scan of the stored result.
//
// # On-disk layout
//
// A catalog directory holds one live log, its lock, and (transiently) the
// compaction temp file:
//
//	dir/
//	  catalog.log       append-only framelog records, single writer
//	  catalog.lock      the writer's flock, stable across rewrites
//	  catalog.log.tmp   compaction scratch, published via rename
//
// Records are framelog frames (see internal/framelog for the record
// discipline, recovery and locking) with magic "SCAT", no key, the single
// kind catKindEntry, and a JSON Entry as payload. Open compacts the
// surviving records (last entry per fingerprint wins) into a fresh log.
// Payloads are kept in memory with their CRC and re-verified against it on
// every Lookup, like plan records — a flipped bit yields a miss
// (recomputation), never a wrong reuse.
package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/stubby-mr/stubby/internal/framelog"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/stats"
	"github.com/stubby-mr/stubby/internal/trans"
	"github.com/stubby-mr/stubby/internal/wf"
)

const (
	catKindEntry = 1

	catFile = "catalog.log"
)

var catFormat = framelog.Format{Magic: 0x53434154, Kinds: catKindEntry}

// Entry is the JSON payload of one catalog record: one materialized result
// keyed by its producing sub-plan's fingerprint.
type Entry struct {
	// Fingerprint is the rooted sub-plan fingerprint, 32 hex digits
	// (wf.Fingerprint.String()).
	Fingerprint string `json:"fingerprint"`
	// Dataset is the DFS dataset ID the result was materialized under.
	Dataset string `json:"dataset"`
	// Workflow names the workflow whose run produced the result (reporting
	// only; fingerprints are name-insensitive).
	Workflow string `json:"workflow,omitempty"`
	// Jobs is how many jobs the producing sub-DAG ran — the recomputation a
	// reuse hit avoids.
	Jobs int `json:"jobs,omitempty"`
	// Records/Bytes/Partitions are the measured sizes of the materialized
	// result on the DFS.
	Records    float64 `json:"records"`
	Bytes      float64 `json:"bytes"`
	Partitions int     `json:"partitions"`
	// MaxPartShare is the largest partition's fraction of the bytes (0 =
	// unknown; estimation then assumes uniform).
	MaxPartShare float64 `json:"maxPartShare,omitempty"`
	// KeyFields/ValueFields name the record fields.
	KeyFields   []string `json:"keyFields,omitempty"`
	ValueFields []string `json:"valueFields,omitempty"`
	// Layout is the materialized physical design, encoded with
	// planio.EncodeLayout (exact int64 split points).
	Layout json.RawMessage `json:"layout,omitempty"`
	// StoredAtMS is when the entry was published (Unix milliseconds),
	// stamped by Put when zero. Zero in old records, whose age is
	// therefore unknown: a TTL-bearing reopen treats them as expired.
	StoredAtMS int64 `json:"storedAtMS,omitempty"`
}

// Stats is a point-in-time snapshot of catalog activity, declared in
// internal/stats.
type Stats = stats.Reuse

// framed is one in-memory record: the raw payload with its CRC, re-verified
// on every read.
type framed struct {
	payload []byte
	crc     uint32
}

// Store is a durable reuse catalog. All methods are safe for concurrent
// use. A Store holds catalog.lock for its lifetime; a second live opener
// fails rather than interleaving appends.
type Store struct {
	dir      string
	ttl      time.Duration
	locCheck func(dataset string) bool

	mu      sync.Mutex
	log     *framelog.Log
	entries map[string]framed

	expired      int
	vanished     int
	puts         uint64
	hits         uint64
	misses       uint64
	compacted    int
	tornBytes    int64
	bytesWritten uint64
	errs         uint64
}

// Option configures a Store at Open.
type Option func(*Store)

// WithTTL evicts entries older than ttl at reopen: the compaction pass
// drops them (counted in Stats.Expired, never surfaced as errors). Entries
// from before timestamps existed have unknown age and are conservatively
// treated as expired. Zero disables age-based eviction.
func WithTTL(ttl time.Duration) Option {
	return func(s *Store) {
		if ttl > 0 {
			s.ttl = ttl
		}
	}
}

// WithLocationCheck evicts entries whose stored dataset location no longer
// exists: at reopen, check(entry.Dataset) returning false drops the entry
// (counted in Stats.Vanished). A reuse hit on a vanished dataset would
// produce a plan scanning nothing, so evicting at open is strictly safer
// than discovering the hole at execution time.
func WithLocationCheck(check func(dataset string) bool) Option {
	return func(s *Store) { s.locCheck = check }
}

// Open opens (creating if needed) the catalog rooted at dir, recovering
// crash-safely: the scan stops at the first torn or corrupt record and the
// survivors — minus entries evicted by WithTTL / WithLocationCheck — are
// compacted (last entry per fingerprint wins) into a fresh log.
func Open(dir string, opts ...Option) (*Store, error) {
	log, err := framelog.Open(dir, catFile, catFormat)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	s := &Store{dir: dir, log: log, entries: make(map[string]framed)}
	for _, o := range opts {
		o(s)
	}
	fail := func(err error) (*Store, error) {
		log.Close()
		return nil, fmt.Errorf("catalog: %w", err)
	}

	// Replay, last entry per fingerprint winning, preserving first-seen
	// order for the compacted rewrite (deterministic file contents).
	var order []string
	s.tornBytes, err = log.Scan(func(fr framelog.Frame) bool {
		fp, ok := payloadFingerprint(fr.Payload)
		if !ok {
			s.compacted++
			return true
		}
		if _, seen := s.entries[fp]; !seen {
			order = append(order, fp)
		} else {
			s.compacted++
		}
		s.entries[fp] = framed{payload: fr.Payload, crc: framelog.Checksum(fr.Payload)}
		return true
	})
	if err != nil {
		return fail(err)
	}

	// Eviction pass: TTL and dataset-existence checks run against the
	// replayed survivors, so evicted entries never reach the compacted
	// rewrite — the log shrinks, and lookups can't hit stale results.
	if s.ttl > 0 || s.locCheck != nil {
		cutoff := time.Now().Add(-s.ttl).UnixMilli()
		kept := order[:0]
		for _, fp := range order {
			var e Entry
			keep := json.Unmarshal(s.entries[fp].payload, &e) == nil
			if keep && s.ttl > 0 && e.StoredAtMS <= cutoff {
				keep = false
				s.expired++
			}
			if keep && s.locCheck != nil && !s.locCheck(e.Dataset) {
				keep = false
				s.vanished++
			}
			if !keep {
				delete(s.entries, fp)
				continue
			}
			kept = append(kept, fp)
		}
		order = kept
	}

	var frames []byte
	for _, fp := range order {
		if frames, err = catFormat.AppendFrame(frames, catKindEntry, nil, s.entries[fp].payload); err != nil {
			return fail(err)
		}
	}
	if err := log.Rewrite(frames); err != nil {
		return fail(fmt.Errorf("compact: %w", err))
	}
	return s, nil
}

// payloadFingerprint extracts just the fingerprint key from a payload.
func payloadFingerprint(p []byte) (string, bool) {
	var e struct {
		Fingerprint string `json:"fingerprint"`
	}
	if json.Unmarshal(p, &e) != nil || e.Fingerprint == "" {
		return "", false
	}
	return e.Fingerprint, true
}

// Put publishes one entry, durably (appended and fsynced before returning).
// A repeat Put of a byte-identical entry is a no-op; a changed entry for a
// known fingerprint is appended and wins (and the reopening compaction
// drops the stale record).
func (s *Store) Put(e Entry) error {
	if e.Fingerprint == "" || e.Dataset == "" {
		return errors.New("catalog: entry needs a fingerprint and a dataset")
	}
	stamp := e.StoredAtMS
	if stamp == 0 {
		stamp = time.Now().UnixMilli()
	}
	e.StoredAtMS = stamp
	payload, err := json.Marshal(&e)
	if err != nil {
		return fmt.Errorf("catalog: encode: %w", err)
	}
	frame, err := catFormat.AppendFrame(nil, catKindEntry, nil, payload)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.entries[e.Fingerprint]; ok {
		if string(prev.payload) == string(payload) {
			return nil
		}
		// A republication that differs only in its fresh timestamp is
		// still the same result — keep the original entry (and its age)
		// rather than churning the log on every run.
		var pe Entry
		if json.Unmarshal(prev.payload, &pe) == nil && pe.StoredAtMS != 0 {
			same := e
			same.StoredAtMS = pe.StoredAtMS
			if sp, err := json.Marshal(&same); err == nil && string(sp) == string(prev.payload) {
				return nil
			}
		}
	}
	if err := s.log.Append(frame); err != nil {
		s.errs++
		return fmt.Errorf("catalog: append: %w", err)
	}
	s.bytesWritten += uint64(len(frame))
	s.entries[e.Fingerprint] = framed{payload: payload, crc: framelog.Checksum(payload)}
	s.puts++
	return nil
}

// PublishRun records every intermediate dataset a completed run of w left on
// dfs, keyed by the rooted fingerprint of its producing sub-DAG. Empty
// results are skipped (a scan of nothing never beats anything), as are
// datasets the run did not leave on the DFS. A failed entry does not stop
// the rest; the first failure is returned (and, for an append, counted in
// Stats.Errors) so that a caller whose run already succeeded may ignore it.
func (s *Store) PublishRun(w *wf.Workflow, dfs *mrsim.DFS) error {
	var first error
	h := wf.NewHasher()
	for _, d := range w.Datasets {
		if d.Base || w.Producer(d.ID) == nil {
			continue
		}
		fp, ok := h.Subplan(w, d.ID)
		if !ok {
			continue
		}
		stored, ok := dfs.Get(d.ID)
		if !ok || stored.Records() == 0 || stored.Bytes() == 0 {
			continue
		}
		layout, err := planio.EncodeLayout(stored.Layout)
		if err == nil {
			total := stored.Bytes()
			var maxPart int64
			for _, p := range stored.Parts {
				if p.Bytes > maxPart {
					maxPart = p.Bytes
				}
			}
			err = s.Put(Entry{
				Fingerprint:  fp.String(),
				Dataset:      d.ID,
				Workflow:     w.Name,
				Jobs:         len(wf.ProducingJobs(w, d.ID)),
				Records:      float64(stored.Records()),
				Bytes:        float64(total),
				Partitions:   len(stored.Parts),
				MaxPartShare: float64(maxPart) / float64(total),
				KeyFields:    d.KeyFields,
				ValueFields:  d.ValueFields,
				Layout:       layout,
			})
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Lookup resolves a sub-plan fingerprint to its stored result. The held
// payload is CRC-re-verified before decoding; a corrupt or undecodable
// entry reports a miss (reuse then falls back to recomputation).
func (s *Store) Lookup(fp wf.Fingerprint) (trans.StoredResult, bool) {
	res, held, ok := s.resolve(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case ok:
		s.hits++
	case held:
		s.errs++
		fallthrough
	default:
		s.misses++
	}
	return res, ok
}

// Peek is Lookup without counting: a session peeks to learn whether the
// reuse pre-pass would match anything, and the search that may follow
// makes the counted lookups.
func (s *Store) Peek(fp wf.Fingerprint) (trans.StoredResult, bool) {
	res, _, ok := s.resolve(fp)
	return res, ok
}

// resolve decodes the result held for fp: held reports that an entry is
// held, ok that it verified and decoded.
func (s *Store) resolve(fp wf.Fingerprint) (res trans.StoredResult, held, ok bool) {
	s.mu.Lock()
	fr, held := s.entries[fp.String()]
	s.mu.Unlock()
	var e Entry
	if !held || framelog.Checksum(fr.payload) != fr.crc || json.Unmarshal(fr.payload, &e) != nil {
		return res, held, false
	}
	var layout wf.Layout
	if len(e.Layout) > 0 {
		var err error
		if layout, err = planio.DecodeLayout(e.Layout); err != nil {
			return res, true, false
		}
	}
	return trans.StoredResult{
		Dataset:     e.Dataset,
		Layout:      layout,
		KeyFields:   e.KeyFields,
		ValueFields: e.ValueFields,
		Records:     e.Records,
		Bytes:       e.Bytes,
		Partitions:  e.Partitions,
	}, true, true
}

// Entry returns the full catalog entry for a fingerprint (CRC-verified),
// for reporting and tests.
func (s *Store) Entry(fp wf.Fingerprint) (Entry, bool) {
	s.mu.Lock()
	fr, ok := s.entries[fp.String()]
	s.mu.Unlock()
	if !ok || framelog.Checksum(fr.payload) != fr.crc {
		return Entry{}, false
	}
	var e Entry
	if err := json.Unmarshal(fr.payload, &e); err != nil {
		return Entry{}, false
	}
	return e, true
}

// Len returns the number of distinct fingerprints held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Dir returns the catalog's directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the catalog's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:      len(s.entries),
		Puts:         s.puts,
		Hits:         s.hits,
		Misses:       s.misses,
		Compacted:    s.compacted,
		Expired:      s.expired,
		Vanished:     s.vanished,
		TornBytes:    s.tornBytes,
		BytesWritten: s.bytesWritten,
		Errors:       s.errs,
	}
}

// Close releases the log and its lock. Puts after Close fail and count as
// Errors; Lookups keep answering from memory.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
