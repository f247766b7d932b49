package framelog_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/stubby-mr/stubby/internal/catalog"
	"github.com/stubby-mr/stubby/internal/planstore"
	"github.com/stubby-mr/stubby/internal/service"
	"github.com/stubby-mr/stubby/internal/wf"
)

var update = flag.Bool("update", false, "rewrite the on-disk format fixtures under testdata/")

// The fixtures under testdata/ were written by the three stores as they
// stood before internal/framelog existed (each with its own codec), by
// running exactly the operation sequences below. They pin the on-disk
// formats: the current code must read them to the same records and, given
// the same operations, write the same bytes.

func goldenPlanKey(i int) planstore.Key {
	return planstore.Key{Plan: wf.Fingerprint{uint64(i + 1), 0xabc}, Cluster: 7, Planner: "stubby", Seed: int64(i)}
}

func goldenPlanDoc(i int) []byte {
	return []byte(fmt.Sprintf(`{"plan":%d,"pad":"%0*d"}`, i, 8*(i+1), i))
}

func goldenJobDoc(i int) []byte { return []byte(fmt.Sprintf(`{"workflow":"W%d"}`, i)) }

func goldenEntry(i int) catalog.Entry {
	return catalog.Entry{
		Fingerprint: wf.Fingerprint{uint64(i + 1), 0xdef}.String(),
		Dataset:     fmt.Sprintf("D%d", i),
		Workflow:    "W",
		Jobs:        i + 1,
		Records:     100 * float64(i+1),
		Bytes:       4096,
		Partitions:  4,
		KeyFields:   []string{"k1"},
		ValueFields: []string{"v1"},
		Layout:      json.RawMessage(`{"part":"hash"}`),
		StoredAtMS:  1_700_000_000_000 + int64(i),
	}
}

// goldenFormats is the table both golden tests run over: how each store
// writes its fixture into a fresh directory (returning the file written),
// and how it reads one back.
var goldenFormats = []struct {
	fixture string
	rel     string // where the file sits inside the store directory
	write   func(t *testing.T, dir string)
	read    func(t *testing.T, dir string)
}{
	{"plan-seg.log", filepath.Join("segments", "seg-000001.log"),
		func(t *testing.T, dir string) {
			s, err := planstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			for i := 0; i < 3; i++ {
				if err := s.Put(goldenPlanKey(i), goldenPlanDoc(i)); err != nil {
					t.Fatal(err)
				}
			}
		},
		func(t *testing.T, dir string) {
			s, err := planstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 3; i++ {
				doc, ok, err := s.Get(goldenPlanKey(i))
				if err != nil || !ok || !bytes.Equal(doc, goldenPlanDoc(i)) {
					t.Errorf("plan %d: got %q ok=%v err=%v", i, doc, ok, err)
				}
			}
			if st := s.Stats(); st.Entries != 3 || st.Errors != 0 {
				t.Errorf("stats %+v, want 3 entries and no errors", st)
			}
		}},
	{"journal.log", "journal.log",
		func(t *testing.T, dir string) {
			j, _, err := service.OpenJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { j.Close() })
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			// Three jobs interleaved; job-2 carries a deadline and is the
			// only one that never finishes.
			must(j.AppendSubmit("job-1", goldenJobDoc(1), 0))
			must(j.AppendState("job-1", service.Running))
			must(j.AppendSubmit("job-2", goldenJobDoc(2), 1_700_000_060_000))
			must(j.AppendSubmit("job-3", goldenJobDoc(3), 0))
			must(j.AppendState("job-2", service.Running))
			must(j.AppendState("job-1", service.Done))
			must(j.AppendState("job-3", service.Running))
			must(j.AppendState("job-3", service.Done))
		},
		func(t *testing.T, dir string) {
			j, inc, err := service.OpenJournal(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if len(inc) != 1 || inc[0].ID != "job-2" || !bytes.Equal(inc[0].Doc, goldenJobDoc(2)) || inc[0].DeadlineUnixMS != 1_700_000_060_000 {
				t.Errorf("recovered %+v, want exactly job-2 with its doc and deadline", inc)
			}
			if st := j.Stats(); st.Recovered != 1 || st.Compacted != 7 || st.TornBytes != 0 {
				t.Errorf("stats %+v, want 1 recovered, 7 compacted, no torn bytes", st)
			}
		}},
	{"catalog.log", "catalog.log",
		func(t *testing.T, dir string) {
			s, err := catalog.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			for i := 0; i < 3; i++ {
				if err := s.Put(goldenEntry(i)); err != nil {
					t.Fatal(err)
				}
			}
		},
		func(t *testing.T, dir string) {
			s, err := catalog.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for i := 0; i < 3; i++ {
				want := goldenEntry(i)
				got, ok := s.Entry(wf.Fingerprint{uint64(i + 1), 0xdef})
				gj, _ := json.Marshal(got)
				wj, _ := json.Marshal(want)
				if !ok || !bytes.Equal(gj, wj) {
					t.Errorf("entry %d: got %s ok=%v, want %s", i, gj, ok, wj)
				}
			}
			if st := s.Stats(); st.Entries != 3 || st.TornBytes != 0 || st.Compacted != 0 {
				t.Errorf("stats %+v, want 3 entries, nothing torn or compacted", st)
			}
		}},
}

// TestFormatGoldensWrite replays each fixture's operation sequence and
// requires byte-identical files. Like the wire goldens, -update is
// forbidden in CI — and here it is never the fix for a failure: a
// difference means the on-disk format changed.
func TestFormatGoldensWrite(t *testing.T) {
	if *update && os.Getenv("CI") != "" {
		t.Fatal("-update is forbidden in CI: the fixtures pin the on-disk formats")
	}
	for _, g := range goldenFormats {
		t.Run(g.fixture, func(t *testing.T) {
			dir := t.TempDir()
			g.write(t, dir)
			got, err := os.ReadFile(filepath.Join(dir, g.rel))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", g.fixture)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: wrote %d bytes that differ from the %d-byte fixture: the on-disk format changed", g.fixture, len(got), len(want))
			}
		})
	}
}

// TestFormatGoldensRead opens a copy of each fixture through its store
// and requires the records the old code wrote.
func TestFormatGoldensRead(t *testing.T) {
	for _, g := range goldenFormats {
		t.Run(g.fixture, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", g.fixture))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			dst := filepath.Join(dir, g.rel)
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dst, data, 0o644); err != nil {
				t.Fatal(err)
			}
			g.read(t, dir)
		})
	}
}
