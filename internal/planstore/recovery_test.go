package planstore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// paperPlanDocs builds one planio result document per paper workload
// (annotated, fingerprint-stamped) — real store payloads, so recovery
// assertions exercise the same decode-and-verify path the session uses.
func paperPlanDocs(t *testing.T) (keys []Key, docs [][]byte) {
	t.Helper()
	for _, abbr := range workloads.Abbrs() {
		wl, err := workloads.Build(abbr, workloads.Options{SizeFactor: 0.05, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := profile.NewProfiler(wl.Cluster, 0.5, 1).Annotate(wl.Workflow, wl.DFS); err != nil {
			t.Fatal(err)
		}
		fp := wf.FingerprintWorkflow(wl.Workflow)
		doc, err := planio.EncodeResult(&planio.Result{
			Plan:          wl.Workflow,
			EstimatedCost: 1000,
			Fingerprint:   fp.String(),
		})
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, Key{Plan: fp, Cluster: 7, Planner: "stubby", Seed: 1})
		docs = append(docs, doc)
	}
	return keys, docs
}

// singleSegment returns the path of the store directory's only segment.
func singleSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := filepath.Glob(filepath.Join(dir, "segments", "seg-*.log"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("segments = %v (err %v), want exactly one", ents, err)
	}
	return ents[0]
}

// TestRecoveryTornTail is the crash drill: a store of real plan documents
// loses the tail of its last record (torn write). Reopening must recover
// every surviving plan — each decoding with its fingerprint verified — and
// report the torn one as absent, never as wrong bytes.
func TestRecoveryTornTail(t *testing.T) {
	keys, docs := paperPlanDocs(t)
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for i := range keys {
		if err := s.Put(keys[i], docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	seg := singleSegment(t, dir)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	last := len(docs) - 1
	// Tear the last record: cut a random number of its payload bytes, as a
	// crash mid-append would.
	cut := int64(1 + rng.Intn(len(docs[last])-1))
	if err := os.Truncate(seg, fi.Size()-cut); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir)
	for i := 0; i < last; i++ {
		doc, ok, err := r.Get(keys[i])
		if err != nil || !ok {
			t.Fatalf("surviving plan %d unreadable: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(doc, docs[i]) {
			t.Fatalf("surviving plan %d returned different bytes", i)
		}
		// The decode-time fingerprint check (planio, PR 5) must pass — the
		// stored bytes still reproduce the stamped fingerprint exactly.
		res, err := planio.DecodeResult(doc)
		if err != nil {
			t.Fatalf("surviving plan %d does not decode: %v", i, err)
		}
		if got := wf.FingerprintWorkflow(res.Plan); got != keys[i].Plan {
			t.Fatalf("surviving plan %d decoded to fingerprint %s, want %s", i, got, keys[i].Plan)
		}
	}
	if _, ok, err := r.Get(keys[last]); err != nil || ok {
		t.Fatalf("torn plan: ok=%v err=%v, want a clean miss", ok, err)
	}
	// The torn tail was physically truncated (the writer was provably dead,
	// so the reopen could reclaim the bytes).
	fi2, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() >= fi.Size()-cut {
		t.Fatalf("torn tail not truncated: %d bytes, had %d", fi2.Size(), fi.Size()-cut)
	}
}

// TestRecoveryCorruptMiddleRecord flips bytes inside an interior record:
// reopening must freeze the segment at the last record before the damage —
// corruption is never misread as data, and earlier records survive.
func TestRecoveryCorruptMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	const n = 6
	var offs []int64
	for i := 0; i < n; i++ {
		s.mu.Lock()
		off := s.seg.Size()
		s.mu.Unlock()
		offs = append(offs, off)
		if err := s.Put(testKey(i), testDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	seg := singleSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt record 3's payload (header stays valid, CRC won't).
	const recHeaderSize = 4 + 1 + 16 + 4 + 4
	data[offs[3]+recHeaderSize+2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir)
	for i := 0; i < 3; i++ {
		doc, ok, err := r.Get(testKey(i))
		if err != nil || !ok || !bytes.Equal(doc, testDoc(i)) {
			t.Fatalf("record %d before the damage: ok=%v err=%v", i, ok, err)
		}
	}
	for i := 3; i < n; i++ {
		if _, ok, err := r.Get(testKey(i)); err != nil || ok {
			t.Fatalf("record %d at/after the damage: ok=%v err=%v, want a miss", i, ok, err)
		}
	}
	if st := r.Stats(); st.Errors == 0 {
		t.Fatal("corruption left no trace in the error counter")
	}
}
