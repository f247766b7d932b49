// Package planstore is a durable, content-addressed store for optimized
// plans: the persistence layer that lets a stubbyd replica (or a restarted
// process) answer a repeat submission without re-running the optimizer.
// Entries are opaque byte documents keyed by a 128-bit address derived from
// the canonical workflow fingerprint (package wf) plus everything else the
// optimization outcome depends on — cluster digest, planner name, search
// seed — so two keys collide only when the optimizer would produce
// byte-identical plans for both.
//
// # On-disk layout
//
// A store directory holds append-only segment files and nothing else that
// records what the store holds; the segments are its only state:
//
//	dir/
//	  segments/seg-000001.log   one per writer lifetime, framelog records
//	  claims/                   cross-process single-flight (claims.go)
//
// Each writer appends to its own segment, created with O_EXCL and held
// under an exclusive flock for the writer's lifetime. No two processes ever
// write the same file, so the write path needs no cross-process
// coordination beyond the per-fingerprint single-flight inside each
// process; the read path is lock-free (records are immutable once their
// CRC validates). Replicas see each other's publishes by rescanning
// segments past their remembered high-water marks on a read miss. An index
// snapshot that older builds kept next to segments/ is ignored.
//
// # Durability and crash safety
//
// Records are framed, appended, scanned and locked by internal/framelog,
// whose package comment states the discipline once: a record is one write
// plus one fsync, and a failed append is truncated away (or, when even that
// fails, the store rotates to a fresh segment) so it never hides later
// ones. Open reads every segment once. A segment whose writer is provably
// gone (its flock is free) is immutable: Open indexes its records and
// physically truncates a torn tail to the last valid record. A live
// writer's short tail is left alone and simply ignored until the record
// completes, and a provably corrupt region freezes its segment.
package planstore

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/stubby-mr/stubby/internal/framelog"
	"github.com/stubby-mr/stubby/internal/stats"
	"github.com/stubby-mr/stubby/internal/wf"
)

// Key identifies one optimization outcome. Two equal keys always map to
// byte-identical optimized plans: the search is deterministic given the
// workflow fingerprint, the cluster, the planner, and the seed.
type Key struct {
	// Plan is the canonical fingerprint of the *submitted* workflow (not of
	// the optimized plan stored under the key).
	Plan wf.Fingerprint
	// Cluster digests the cluster description (whatif.ClusterFingerprint).
	Cluster uint64
	// Planner names the planner that produced the plan.
	Planner string
	// Seed is the search seed.
	Seed int64
	// Search digests the search options that change the plan (0 for the
	// defaults).
	Search uint64
}

// Address collapses the key into the 128-bit content address records are
// stored under.
func (k Key) Address() Address {
	h := fnv.New128a()
	var buf [8]byte
	for _, v := range []uint64{k.Plan[0], k.Plan[1], k.Cluster, uint64(k.Seed)} {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(k.Planner))
	// Mixed in only when set, so every default-option address is the one
	// earlier builds wrote.
	if k.Search != 0 {
		binary.BigEndian.PutUint64(buf[:], k.Search)
		h.Write(buf[:])
	}
	var sum [16]byte
	h.Sum(sum[:0])
	return addressOf(sum[:])
}

// Address is the 128-bit on-disk key of a record.
type Address [2]uint64

// String renders the address as 32 hex digits.
func (a Address) String() string { return fmt.Sprintf("%016x%016x", a[0], a[1]) }

// Stats is a point-in-time snapshot of store activity, declared in
// internal/stats.
type Stats = stats.Store

// recLoc locates one record's payload inside a segment.
type recLoc struct {
	seg string
	off int64 // offset of the record header
	n   int   // payload length
}

// memEntry is one in-memory cached document.
type memEntry struct {
	addr Address
	doc  []byte
}

// flight tracks one in-progress computation other callers wait on.
type flight struct {
	done chan struct{}
	doc  []byte
	err  error
}

// memEntries bounds the in-memory document cache. Disk entries are
// unbounded.
const memEntries = 256

// Store is a durable content-addressed document store with an in-memory
// LRU front and a per-address single-flight. It is safe for concurrent use
// within a process, and any number of Stores (in one process or many) may
// share a directory.
type Store struct {
	dir    string
	segDir string
	memCap int

	mu     sync.Mutex
	index  map[Address]recLoc        // disk records (this store has seen)
	mem    map[Address]*list.Element // of *memEntry
	lru    *list.List                // front = most recently used
	seg    *segmentWriter            // own segment; nil after Close
	marks  map[string]int64          // segment name → scanned high-water offset
	frozen map[string]bool           // segments with a detected corrupt region
	closed bool

	flMu    sync.Mutex
	flights map[Address]*flight

	hits, memHits, diskHits, misses   atomic.Uint64
	computes, puts, evictions         atomic.Uint64
	bytesWritten, bytesRead, errCount atomic.Uint64
	claims, claimWaits, claimHits     atomic.Uint64
}

// Open opens (creating if needed) the store directory: it reads every
// segment once — indexing the records of writer-less segments and
// truncating their torn tails, then scanning live writers' segments — and
// claims a fresh segment file for this store's own appends.
func Open(dir string) (*Store, error) {
	s := &Store{
		dir:     dir,
		segDir:  filepath.Join(dir, "segments"),
		memCap:  memEntries,
		index:   make(map[Address]recLoc),
		mem:     make(map[Address]*list.Element),
		lru:     list.New(),
		marks:   make(map[string]int64),
		frozen:  make(map[string]bool),
		flights: make(map[Address]*flight),
	}
	if err := os.MkdirAll(s.segDir, 0o755); err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "claims"), 0o755); err != nil {
		return nil, fmt.Errorf("planstore: %w", err)
	}
	s.mu.Lock()
	s.recoverSegmentsLocked()
	if err := s.refreshLocked(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	seg, err := openSegmentWriter(s.segDir)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.seg = seg
	s.marks[seg.name] = 0
	s.mu.Unlock()
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Get returns the document stored under key, consulting the in-memory LRU,
// then the known disk index, then — still on a miss — rescanning the
// directory for records other replicas published since the last look. Each
// call counts one hit or one miss.
func (s *Store) Get(key Key) ([]byte, bool, error) { return s.get(key, false) }

// Peek is Get for a lookup that a GetOrCompute of the same key follows on a
// miss — a server's or a session's check before it queues the request: a
// hit counts, a miss does not, so the request's one miss is GetOrCompute's.
func (s *Store) Peek(key Key) ([]byte, bool, error) { return s.get(key, true) }

// get is Get. A recheck — Peek, or GetOrCompute probing again for a key
// whose miss its first Get already counted — counts a hit but no miss, so
// the misses count requests rather than probes; it still rescans the
// directory.
func (s *Store) get(key Key, recheck bool) ([]byte, bool, error) {
	doc, tier, err := s.lookup(key.Address())
	switch {
	case err != nil: // a failed lookup is neither a hit nor a miss
	case tier != nil:
		s.hits.Add(1)
		tier.Add(1)
	case !recheck:
		s.misses.Add(1)
	}
	return doc, tier != nil, err
}

// lookup finds addr's document in the memory LRU, then the disk index, then
// the index after a rescan. tier is the hit counter of where it was found
// (memHits or diskHits), nil when it is absent.
func (s *Store) lookup(addr Address) (doc []byte, tier *atomic.Uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.mem[addr]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*memEntry).doc, &s.memHits, nil
	}
	if doc, ok := s.readAndCacheLocked(addr); ok {
		return doc, &s.diskHits, nil
	}
	// Nothing local: another replica may have published since we last
	// looked. Rescan past the high-water marks before declaring a miss.
	if err := s.refreshLocked(); err != nil {
		return nil, nil, err
	}
	if doc, ok := s.readAndCacheLocked(addr); ok {
		return doc, &s.diskHits, nil
	}
	return nil, nil, nil
}

// readAndCacheLocked reads addr's record payload from disk and promotes it
// into the memory LRU. Callers hold s.mu. A record that fails its CRC (disk
// rot after indexing) is dropped from the index and reported as absent.
func (s *Store) readAndCacheLocked(addr Address) ([]byte, bool) {
	loc, ok := s.index[addr]
	if !ok {
		return nil, false
	}
	doc, err := readRecordPayload(filepath.Join(s.segDir, loc.seg), loc.off, loc.n, addr)
	if err != nil {
		delete(s.index, addr)
		s.errCount.Add(1)
		return nil, false
	}
	s.bytesRead.Add(uint64(len(doc)))
	s.cacheLocked(addr, doc)
	return doc, true
}

// cacheLocked inserts doc into the memory LRU. Callers hold s.mu.
func (s *Store) cacheLocked(addr Address, doc []byte) {
	if el, ok := s.mem[addr]; ok {
		s.lru.MoveToFront(el)
		el.Value.(*memEntry).doc = doc
		return
	}
	s.mem[addr] = s.lru.PushFront(&memEntry{addr: addr, doc: doc})
	for s.lru.Len() > s.memCap {
		old := s.lru.Back()
		s.lru.Remove(old)
		delete(s.mem, old.Value.(*memEntry).addr)
		s.evictions.Add(1)
	}
}

// Put publishes doc under key: append to the owned segment (one write,
// one fsync), index it and cache it. Publishing the same address twice is harmless — the store is
// content-addressed, so duplicates carry identical bytes and the
// last-indexed location wins.
func (s *Store) Put(key Key, doc []byte) error {
	addr := key.Address()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(addr, doc)
}

func (s *Store) putLocked(addr Address, doc []byte) error {
	if s.closed {
		return errors.New("planstore: store is closed")
	}
	if s.seg.Broken() {
		if err := s.rotateSegmentLocked(); err != nil {
			s.errCount.Add(1)
			return err
		}
	}
	off, err := s.seg.append(addr, doc)
	if err != nil {
		s.errCount.Add(1)
		return fmt.Errorf("planstore: append: %w", err)
	}
	s.index[addr] = recLoc{seg: s.seg.name, off: off, n: len(doc)}
	s.marks[s.seg.name] = s.seg.Size()
	s.cacheLocked(addr, doc)
	s.puts.Add(1)
	s.bytesWritten.Add(uint64(len(doc)))
	return nil
}

// rotateSegmentLocked replaces an owned segment whose failed append left
// bytes that could not be truncated away: no scan reads past them, so
// later records must land in a fresh file to stay recoverable. The old
// segment is frozen at its last good record. Callers hold s.mu.
func (s *Store) rotateSegmentLocked() error {
	seg, err := openSegmentWriter(s.segDir)
	if err != nil {
		return err
	}
	s.frozen[s.seg.name] = true
	_ = s.seg.close(s.segDir)
	s.seg = seg
	s.marks[seg.name] = 0
	return nil
}

// GetOrCompute returns the document for key, running compute on a miss.
// Single-flight holds at two levels: concurrent callers within the process
// share one computation through an in-process flight, and concurrent
// callers across processes sharing the directory share one through a
// flock-backed claim under dir/claims/ — N simultaneous submissions of one
// workflow across a whole cluster of replicas cost exactly one
// optimization. hit reports whether the document came from the store
// (memory, disk, another caller's flight, or another replica's concurrent
// computation) rather than this call's compute. ctx bounds only the
// waiting; a compute this call started runs to its own completion. Errors
// are returned to every in-process waiter and never stored; a replica
// whose claimed compute fails releases the claim, so the next waiter takes
// the computation over rather than inheriting the failure.
func (s *Store) GetOrCompute(ctx context.Context, key Key, compute func() ([]byte, error)) (doc []byte, hit bool, err error) {
	addr := key.Address()
	for {
		if doc, ok, err := s.Get(key); err != nil {
			return nil, false, err
		} else if ok {
			return doc, true, nil
		}
		s.flMu.Lock()
		if fl, ok := s.flights[addr]; ok {
			s.flMu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if fl.err != nil {
				return nil, false, fl.err
			}
			s.hits.Add(1)
			return fl.doc, true, nil
		}
		fl := &flight{done: make(chan struct{})}
		s.flights[addr] = fl
		s.flMu.Unlock()

		// Re-check under flight ownership: a previous owner may have
		// published between our miss and our registration. The miss is
		// counted once, above.
		if doc, ok, err := s.get(key, true); err != nil || ok {
			s.resolveFlight(addr, fl, doc, err)
			return doc, ok, err
		}
		// Cross-process single-flight: only the claim holder computes.
		cl, waited, err := s.waitOrClaim(ctx, key, addr)
		if err != nil || waited != nil {
			s.resolveFlight(addr, fl, waited, err)
			return waited, waited != nil, err
		}
		// One more probe now that the claim is ours: the previous holder
		// may have published and released between our last Get and the
		// acquisition.
		if doc, ok, gerr := s.get(key, true); gerr != nil || ok {
			cl.release()
			s.resolveFlight(addr, fl, doc, gerr)
			return doc, ok, gerr
		}
		s.computes.Add(1)
		doc, err = compute()
		if err == nil {
			s.mu.Lock()
			// A failed append is a durability problem, not a correctness
			// one: the computed document is still returned (and cached) so
			// the caller's optimization is never wasted on a full disk.
			if perr := s.putLocked(addr, doc); perr != nil {
				s.cacheLocked(addr, doc)
			}
			s.mu.Unlock()
		}
		cl.release()
		s.resolveFlight(addr, fl, doc, err)
		return doc, false, err
	}
}

func (s *Store) resolveFlight(addr Address, fl *flight, doc []byte, err error) {
	s.flMu.Lock()
	delete(s.flights, addr)
	s.flMu.Unlock()
	fl.doc, fl.err = doc, err
	close(fl.done)
}

// Stats snapshots the store's counters. The counters are atomics, so a
// stats poll never contends with the read or write path.
func (s *Store) Stats() Stats {
	st := Stats{
		Hits:         s.hits.Load(),
		MemHits:      s.memHits.Load(),
		DiskHits:     s.diskHits.Load(),
		Misses:       s.misses.Load(),
		Computes:     s.computes.Load(),
		Puts:         s.puts.Load(),
		Evictions:    s.evictions.Load(),
		BytesWritten: s.bytesWritten.Load(),
		BytesRead:    s.bytesRead.Load(),
		Errors:       s.errCount.Load(),
		Claims:       s.claims.Load(),
		ClaimWaits:   s.claimWaits.Load(),
		ClaimHits:    s.claimHits.Load(),
	}
	s.mu.Lock()
	st.Entries = len(s.index)
	st.Segments = len(s.marks)
	s.mu.Unlock()
	return st
}

// Close releases the owned segment (removing it entirely if this writer
// never published a record); every record it did publish is already
// durable. Close is idempotent; Get keeps working on a closed store, Put
// fails.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.seg.close(s.segDir)
}

// --- segment discovery and scanning ------------------------------------------

// recoverSegmentsLocked indexes the records of segments with no live writer
// and truncates their torn tails. A segment's writer holds an exclusive
// flock for its lifetime, so a successfully acquired lock proves the writer
// is gone and the file is immutable — safe to scan to the last valid
// record, index what it holds, and physically truncate the rest. The
// segment's mark is set to its valid size, so refreshLocked, which resumes
// at the mark, finds nothing left to read there.
// Segments whose lock is held are left to refreshLocked, which ignores
// incomplete tails until they finish. Callers hold s.mu.
func (s *Store) recoverSegmentsLocked() {
	for _, name := range s.listSegments() {
		path := filepath.Join(s.segDir, name)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			continue
		}
		if !framelog.WriterGone(f) {
			f.Close() // live writer; leave the tail alone
			continue
		}
		if fi, err := f.Stat(); err == nil {
			valid, verdict := recFormat.Scan(f, 0, fi.Size(), s.indexFrame(name))
			s.marks[name] = valid
			if verdict == framelog.Corrupt {
				s.errCount.Add(1)
			}
			if valid < fi.Size() {
				_ = f.Truncate(valid)
			}
		}
		framelog.Unlock(f)
		f.Close()
	}
}

// listSegments returns the segment file names in the directory, sorted.
func (s *Store) listSegments() []string {
	ents, err := os.ReadDir(s.segDir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), segPrefix) && strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// refreshLocked scans every segment past its high-water mark, absorbing
// newly published records into the index. This is how one replica observes
// another's publishes without any cross-process locking: records are
// immutable once complete, and an incomplete tail (a writer mid-append)
// simply leaves the mark in place for the next refresh. A segment whose
// scan hits provable corruption (bad magic or CRC on a complete record) is
// frozen at its last valid offset so the damage is skipped, not re-read
// forever. Callers hold s.mu.
func (s *Store) refreshLocked() error {
	for _, name := range s.listSegments() {
		if s.frozen[name] {
			continue
		}
		if s.seg != nil && name == s.seg.name {
			continue // own appends are indexed synchronously by Put
		}
		mark := s.marks[name]
		path := filepath.Join(s.segDir, name)
		fi, err := os.Stat(path)
		if err != nil || fi.Size() <= mark {
			if err == nil {
				s.marks[name] = mark // track segment existence
			}
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			s.errCount.Add(1)
			continue
		}
		newMark, verdict := recFormat.Scan(f, mark, fi.Size(), s.indexFrame(name))
		f.Close()
		s.marks[name] = newMark
		if verdict == framelog.Corrupt {
			s.frozen[name] = true
			s.errCount.Add(1)
		}
	}
	return nil
}

// indexFrame returns the scan callback that indexes each record of segment
// name. Callers hold s.mu.
func (s *Store) indexFrame(name string) func(framelog.Frame) bool {
	return func(fr framelog.Frame) bool {
		s.index[addressOf(fr.Key)] = recLoc{seg: name, off: fr.Off, n: len(fr.Payload)}
		return true
	}
}
