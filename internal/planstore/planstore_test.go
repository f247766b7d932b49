package planstore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/stubby-mr/stubby/internal/wf"
)

func testKey(i int) Key {
	return Key{Plan: wf.Fingerprint{uint64(i + 1), uint64(i * 31)}, Cluster: 7, Planner: "stubby", Seed: 1}
}

func testDoc(i int) []byte {
	return []byte(fmt.Sprintf(`{"plan":"document-%d","padding":"%032d"}`, i, i))
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAddressDistinguishesKeyFields(t *testing.T) {
	base := Key{Plan: wf.Fingerprint{1, 2}, Cluster: 3, Planner: "stubby", Seed: 4}
	variants := []Key{
		{Plan: wf.Fingerprint{9, 2}, Cluster: 3, Planner: "stubby", Seed: 4},
		{Plan: wf.Fingerprint{1, 2}, Cluster: 9, Planner: "stubby", Seed: 4},
		{Plan: wf.Fingerprint{1, 2}, Cluster: 3, Planner: "ysmart", Seed: 4},
		{Plan: wf.Fingerprint{1, 2}, Cluster: 3, Planner: "stubby", Seed: 9},
		{Plan: wf.Fingerprint{1, 2}, Cluster: 3, Planner: "stubby", Seed: 4, Search: 9},
	}
	for i, v := range variants {
		if v.Address() == base.Address() {
			t.Errorf("variant %d collides with the base key", i)
		}
	}
	if base.Address() != base.Address() {
		t.Error("address is not deterministic")
	}
}

func TestPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	const n = 24
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), testDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		doc, ok, err := s.Get(testKey(i))
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(doc, testDoc(i)) {
			t.Fatalf("get %d returned wrong bytes", i)
		}
	}
	st := s.Stats()
	if st.Puts != n || st.Hits != n || st.Misses != 0 {
		t.Fatalf("stats = %+v, want %d puts, %d hits, 0 misses", st, n, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen (a "restart"): every document must come back from disk,
	// byte-identical, via the one scan of the segments Open makes.
	r := mustOpen(t, dir)
	for i := 0; i < n; i++ {
		doc, ok, err := r.Get(testKey(i))
		if err != nil || !ok {
			t.Fatalf("reopened get %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(doc, testDoc(i)) {
			t.Fatalf("reopened get %d returned wrong bytes", i)
		}
	}
	if st := r.Stats(); st.DiskHits != n || st.Entries != n {
		t.Fatalf("reopened stats = %+v, want %d disk hits and entries", st, n)
	}
}

// TestLeftoverIndexIgnored reopens a directory holding an index.json of
// random bytes, as an older build could leave behind: the segments alone
// decide what the store holds, and the leftover file costs no error.
func TestLeftoverIndexIgnored(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), testDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(junk)
	if err := os.WriteFile(filepath.Join(dir, "index.json"), junk, 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir)
	if st := r.Stats(); st.Entries != n || st.Errors != 0 {
		t.Fatalf("reopened stats = %+v, want %d entries and no errors", st, n)
	}
	for i := 0; i < n; i++ {
		doc, ok, err := r.Get(testKey(i))
		if err != nil || !ok || !bytes.Equal(doc, testDoc(i)) {
			t.Fatalf("get %d beside a leftover index: ok=%v err=%v", i, ok, err)
		}
	}
	if st := r.Stats(); st.Errors != 0 {
		t.Fatalf("errors = %d after reads, want 0", st.Errors)
	}
}

// TestSegmentsAreTheOnlyState checks that a closed store leaves nothing in
// its directory but the segments and the claims directory.
func TestSegmentsAreTheOnlyState(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for i := 0; i < 40; i++ {
		if err := s.Put(testKey(i), testDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if fmt.Sprint(names) != "[claims segments]" {
		t.Fatalf("store directory holds %v, want only [claims segments]", names)
	}
}

func TestMemoryLRUBoundsAndEvicts(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	s.memCap = 4
	for i := 0; i < 10; i++ {
		if err := s.Put(testKey(i), testDoc(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", st.Evictions)
	}
	// Evicted entries must still be served — from disk.
	if _, ok, err := s.Get(testKey(0)); err != nil || !ok {
		t.Fatalf("evicted entry unreadable: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.DiskHits)
	}
}

func TestGetOrComputeSingleFlight(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := testKey(0)
	var computes int
	var mu sync.Mutex
	start := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	docs := make([][]byte, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			doc, _, err := s.GetOrCompute(context.Background(), key, func() ([]byte, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				return testDoc(0), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			docs[i] = doc
		}(i)
	}
	close(start)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computes = %d, want 1 (single-flight)", computes)
	}
	for i, doc := range docs {
		if !bytes.Equal(doc, testDoc(0)) {
			t.Fatalf("caller %d got wrong bytes", i)
		}
	}
	if st := s.Stats(); st.Computes != 1 {
		t.Fatalf("stats computes = %d, want 1", st.Computes)
	}
}

func TestGetOrComputeErrorNotStored(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := testKey(0)
	wantErr := fmt.Errorf("optimization failed")
	if _, _, err := s.GetOrCompute(context.Background(), key, func() ([]byte, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if _, ok, _ := s.Get(key); ok {
		t.Fatal("a failed computation was stored")
	}
	// The next compute must run (the flight was not poisoned).
	doc, hit, err := s.GetOrCompute(context.Background(), key, func() ([]byte, error) { return testDoc(0), nil })
	if err != nil || hit || !bytes.Equal(doc, testDoc(0)) {
		t.Fatalf("retry after error: hit=%v err=%v", hit, err)
	}
}

func TestTwoStoresShareDirectoryLive(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir)
	b := mustOpen(t, dir)

	// A publishes; B must observe it without reopening (refresh scan).
	if err := a.Put(testKey(1), testDoc(1)); err != nil {
		t.Fatal(err)
	}
	doc, ok, err := b.Get(testKey(1))
	if err != nil || !ok || !bytes.Equal(doc, testDoc(1)) {
		t.Fatalf("b missed a's publish: ok=%v err=%v", ok, err)
	}
	// And the reverse: each writer owns its own segment.
	if err := b.Put(testKey(2), testDoc(2)); err != nil {
		t.Fatal(err)
	}
	doc, ok, err = a.Get(testKey(2))
	if err != nil || !ok || !bytes.Equal(doc, testDoc(2)) {
		t.Fatalf("a missed b's publish: ok=%v err=%v", ok, err)
	}
	if st := a.Stats(); st.Segments < 2 {
		t.Fatalf("segments = %d, want >= 2 (one per writer)", st.Segments)
	}
	// GetOrCompute on B must hit A's entry, not recompute.
	_, hit, err := b.GetOrCompute(context.Background(), testKey(1), func() ([]byte, error) {
		t.Error("recomputed an entry another replica already published")
		return testDoc(1), nil
	})
	if err != nil || !hit {
		t.Fatalf("cross-replica GetOrCompute: hit=%v err=%v", hit, err)
	}
}

func TestCloseIsIdempotentAndGetSurvives(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Put(testKey(0), testDoc(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(testKey(0)); err != nil || !ok {
		t.Fatalf("get after close: ok=%v err=%v", ok, err)
	}
	if err := s.Put(testKey(1), testDoc(1)); err == nil {
		t.Fatal("put after close succeeded")
	}
}
