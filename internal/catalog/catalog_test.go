package catalog

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/wf"
)

func testEntry(t *testing.T, fp wf.Fingerprint, ds string) Entry {
	t.Helper()
	layout, err := planio.EncodeLayout(wf.Layout{
		PartType:   keyval.HashPartition,
		PartFields: []string{"k1"},
		SortFields: []string{"k1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Entry{
		Fingerprint:  fp.String(),
		Dataset:      ds,
		Workflow:     "W",
		Jobs:         2,
		Records:      100,
		Bytes:        4096,
		Partitions:   4,
		MaxPartShare: 0.3,
		KeyFields:    []string{"k1"},
		ValueFields:  []string{"v1"},
		Layout:       layout,
	}
}

func TestPutLookupRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fp := wf.Fingerprint{1, 2}
	if err := s.Put(testEntry(t, fp, "D3")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Lookup(fp)
	if !ok {
		t.Fatal("lookup missed a just-published fingerprint")
	}
	if got.Dataset != "D3" || got.Records != 100 || got.Bytes != 4096 || got.Partitions != 4 {
		t.Errorf("stored result round trip mangled: %+v", got)
	}
	if got.Layout.PartType != keyval.HashPartition || len(got.Layout.PartFields) != 1 {
		t.Errorf("layout round trip mangled: %+v", got.Layout)
	}
	if _, ok := s.Lookup(wf.Fingerprint{9, 9}); ok {
		t.Error("lookup hit an unknown fingerprint")
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Errors != 0 {
		t.Errorf("stats: %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate %v, want 0.5", st.HitRate())
	}
}

func TestPutValidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(Entry{Dataset: "D1"}); err == nil {
		t.Error("Put accepted an entry without a fingerprint")
	}
	if err := s.Put(Entry{Fingerprint: "ab"}); err == nil {
		t.Error("Put accepted an entry without a dataset")
	}
}

func TestDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fps := []wf.Fingerprint{{1, 1}, {2, 2}, {3, 3}}
	for i, fp := range fps {
		if err := s.Put(testEntry(t, fp, "D"+string(rune('1'+i)))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite one fingerprint with changed sizes: the stale record stays
	// in the log until the reopening compaction drops it.
	e := testEntry(t, fps[0], "D1")
	e.Records = 999
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	// A byte-identical repeat Put is a no-op.
	before := s.Stats().BytesWritten
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats().BytesWritten; after != before {
		t.Errorf("identical re-Put appended %d bytes", after-before)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 3 {
		t.Fatalf("reopened catalog holds %d entries, want 3", r.Len())
	}
	got, ok := r.Lookup(fps[0])
	if !ok || got.Records != 999 {
		t.Errorf("last write did not win across reopen: %+v ok=%v", got, ok)
	}
	if st := r.Stats(); st.Compacted != 1 {
		t.Errorf("reopen compacted %d stale records, want 1", st.Compacted)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry(t, wf.Fingerprint{1, 1}, "D1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage after the last valid record.
	path := filepath.Join(dir, catFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x53, 0x43, 0x41}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("torn tail lost valid records: %d entries, want 1", r.Len())
	}
	if st := r.Stats(); st.TornBytes != 3 {
		t.Errorf("TornBytes = %d, want 3", st.TornBytes)
	}
	if _, ok := r.Lookup(wf.Fingerprint{1, 1}); !ok {
		t.Error("surviving record unreadable after torn-tail recovery")
	}
}

func TestCorruptRecordFreezesScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry(t, wf.Fingerprint{1, 1}, "D1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry(t, wf.Fingerprint{2, 2}, "D2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the last record: its CRC fails, the scan
	// freezes there, and only the first record survives.
	path := filepath.Join(dir, catFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("%d entries survived, want 1 (corrupt record must not decode)", r.Len())
	}
	if _, ok := r.Lookup(wf.Fingerprint{1, 1}); !ok {
		t.Error("first record lost")
	}
	if _, ok := r.Lookup(wf.Fingerprint{2, 2}); ok {
		t.Error("corrupt record resurrected")
	}
	if st := r.Stats(); st.TornBytes == 0 {
		t.Error("corruption not reported in TornBytes")
	}
}

func TestSecondOpenerFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Open(dir); err == nil {
		t.Fatal("second live opener succeeded; the flock is not held")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after close failed: %v", err)
	}
	r.Close()
}

func TestPutAfterCloseFails(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry(t, wf.Fingerprint{1, 1}, "D1")); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if st := s.Stats(); st.Errors == 0 {
		t.Error("failed Put not counted in Errors")
	}
}

func TestPutStampsAndPreservesTimestamps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fp := wf.Fingerprint{21, 22}
	if err := s.Put(testEntry(t, fp, "D1")); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Entry(fp)
	if !ok || e.StoredAtMS == 0 {
		t.Fatalf("Put did not stamp StoredAtMS: %+v", e)
	}
	first := e.StoredAtMS
	// Republishing the same result must neither append a record nor
	// refresh the entry's age.
	before := s.Stats().Puts
	if err := s.Put(testEntry(t, fp, "D1")); err != nil {
		t.Fatal(err)
	}
	if after := s.Stats().Puts; after != before {
		t.Fatalf("republication appended: puts %d -> %d", before, after)
	}
	if e, _ := s.Entry(fp); e.StoredAtMS != first {
		t.Fatalf("republication churned the timestamp: %d -> %d", first, e.StoredAtMS)
	}
	// A genuinely changed result still wins.
	changed := testEntry(t, fp, "D2")
	if err := s.Put(changed); err != nil {
		t.Fatal(err)
	}
	if e, _ := s.Entry(fp); e.Dataset != "D2" {
		t.Fatalf("changed entry not applied: %+v", e)
	}
}

func TestTTLEvictsAtReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh := wf.Fingerprint{1, 1}
	stale := wf.Fingerprint{2, 2}
	ageless := wf.Fingerprint{3, 3}
	if err := s.Put(testEntry(t, fresh, "Dfresh")); err != nil {
		t.Fatal(err)
	}
	old := testEntry(t, stale, "Dstale")
	old.StoredAtMS = time.Now().Add(-48 * time.Hour).UnixMilli()
	if err := s.Put(old); err != nil {
		t.Fatal(err)
	}
	// Simulate a pre-timestamp record: marshal with StoredAtMS zero and
	// append it raw, as an old writer would have.
	pre := testEntry(t, ageless, "Dageless")
	payload, err := json.Marshal(&pre)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, catFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := catFormat.AppendFrame(nil, catKindEntry, nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, WithTTL(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Lookup(fresh); !ok {
		t.Error("TTL evicted a fresh entry")
	}
	if _, ok := r.Lookup(stale); ok {
		t.Error("TTL kept an entry past its TTL")
	}
	if _, ok := r.Lookup(ageless); ok {
		t.Error("TTL kept an entry of unknown age")
	}
	st := r.Stats()
	if st.Expired != 2 || st.Entries != 1 || st.Errors != 0 {
		t.Errorf("stats after TTL eviction: %+v", st)
	}

	// Eviction is durable: a plain reopen no longer sees the evicted
	// entries (the compacted rewrite dropped their records).
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rr, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if rr.Len() != 1 {
		t.Errorf("entries after evicting reopen = %d, want 1", rr.Len())
	}
}

func TestLocationCheckEvictsVanished(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept := wf.Fingerprint{4, 4}
	gone := wf.Fingerprint{5, 5}
	if err := s.Put(testEntry(t, kept, "Dkept")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testEntry(t, gone, "Dgone")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, WithLocationCheck(func(ds string) bool { return ds != "Dgone" }))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Lookup(kept); !ok {
		t.Error("location check evicted an existing dataset's entry")
	}
	if _, ok := r.Lookup(gone); ok {
		t.Error("location check kept a vanished dataset's entry")
	}
	st := r.Stats()
	if st.Vanished != 1 || st.Expired != 0 || st.Entries != 1 || st.Errors != 0 {
		t.Errorf("stats after location eviction: %+v", st)
	}
}
