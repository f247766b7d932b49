package framelog_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/stubby-mr/stubby/internal/catalog"
	"github.com/stubby-mr/stubby/internal/framelog"
	"github.com/stubby-mr/stubby/internal/planstore"
	"github.com/stubby-mr/stubby/internal/service"
	"github.com/stubby-mr/stubby/internal/wf"
)

// The crash drill runs every damage and I/O-fault class against all three
// framelog users through one thin adapter each. The invariant after every
// case: a reopened store holds exactly a prefix-consistent subset of the
// records whose write was acknowledged, each with the bytes written, and —
// for faults the process survives — every append acknowledged after the
// fault.

// drillStore is one open store seen as a set of numbered records.
type drillStore interface {
	put(i int) error // write record i durably
	has(i int) bool  // record i is present with exactly what put(i) wrote
	errors() uint64  // the store's Errors stat
	close()
}

type drillUser struct {
	name string
	file string // where puts land, relative to the store directory
	open func(dir string) (drillStore, error)
	// exclusive: a second live opener is refused (otherwise it shares).
	exclusive bool
	// rotates: a writer that cannot undo a failed append moves to a fresh
	// file instead of refusing appends.
	rotates bool
	// rewrites: reopening rewrites the log through temp+rename.
	rewrites bool
	// keyed: frames carry their record's identity in the header key, which
	// the payload CRC does not cover — damage there loses that one record
	// without stopping the scan.
	keyed bool
}

type planDrill struct{ s *planstore.Store }

func (d planDrill) put(i int) error { return d.s.Put(goldenPlanKey(i), goldenPlanDoc(i)) }
func (d planDrill) has(i int) bool {
	doc, ok, err := d.s.Get(goldenPlanKey(i))
	return err == nil && ok && bytes.Equal(doc, goldenPlanDoc(i))
}
func (d planDrill) errors() uint64 { return d.s.Stats().Errors }
func (d planDrill) close()         { d.s.Close() }

type journalDrill struct {
	j         *service.Journal
	recovered []service.IncompleteJob
}

func (d journalDrill) put(i int) error {
	return d.j.AppendSubmit(fmt.Sprintf("job-%d", i), goldenJobDoc(i), int64(i))
}
func (d journalDrill) has(i int) bool {
	for _, in := range d.recovered {
		if in.ID == fmt.Sprintf("job-%d", i) {
			return bytes.Equal(in.Doc, goldenJobDoc(i)) && in.DeadlineUnixMS == int64(i)
		}
	}
	return false
}
func (d journalDrill) errors() uint64 { return d.j.Stats().Errors }
func (d journalDrill) close()         { d.j.Close() }

type catalogDrill struct{ s *catalog.Store }

func (d catalogDrill) put(i int) error { return d.s.Put(goldenEntry(i)) }
func (d catalogDrill) has(i int) bool {
	e, ok := d.s.Entry(wf.Fingerprint{uint64(i + 1), 0xdef})
	return ok && reflect.DeepEqual(e, goldenEntry(i))
}
func (d catalogDrill) errors() uint64 { return d.s.Stats().Errors }
func (d catalogDrill) close()         { d.s.Close() }

var drillUsers = []drillUser{
	{name: "planstore", file: filepath.Join("segments", "seg-000001.log"), rotates: true, keyed: true,
		open: func(dir string) (drillStore, error) {
			s, err := planstore.Open(dir)
			if err != nil {
				return nil, err
			}
			return planDrill{s}, nil
		}},
	{name: "journal", file: "journal.log", exclusive: true, rewrites: true,
		open: func(dir string) (drillStore, error) {
			j, inc, err := service.OpenJournal(dir)
			if err != nil {
				return nil, err
			}
			return journalDrill{j, inc}, nil
		}},
	{name: "catalog", file: "catalog.log", exclusive: true, rewrites: true,
		open: func(dir string) (drillStore, error) {
			s, err := catalog.Open(dir)
			if err != nil {
				return nil, err
			}
			return catalogDrill{s}, nil
		}},
}

func (u drillUser) mustOpen(t *testing.T, dir string) drillStore {
	t.Helper()
	s, err := u.open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

// expect reopens dir and requires exactly the records in want, of 0..n-1.
func (u drillUser) expect(t *testing.T, dir string, n int, want ...int) {
	t.Helper()
	s := u.mustOpen(t, dir)
	defer s.close()
	in := make(map[int]bool)
	for _, i := range want {
		in[i] = true
	}
	for i := 0; i < n; i++ {
		if got := s.has(i); got != in[i] {
			t.Errorf("after reopen: record %d present=%v, want %v (expected set %v)", i, got, in[i], want)
		}
	}
}

// written puts records 0..n-1 into a fresh store and returns the bytes of
// the file they landed in plus the offset each record ends at.
func (u drillUser) written(t *testing.T, n int) (data []byte, ends []int) {
	t.Helper()
	dir := t.TempDir()
	s := u.mustOpen(t, dir)
	for i := 0; i < n; i++ {
		if err := s.put(i); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, u.file))
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(fi.Size()))
	}
	data, err := os.ReadFile(filepath.Join(dir, u.file))
	if err != nil {
		t.Fatal(err)
	}
	s.close()
	return data, ends
}

// crashed builds the directory a crash leaves: just the log, holding data.
func (u drillUser) crashed(t *testing.T, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, u.file)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// mix64 is splitmix64's finalizer: draw n of the drill is a pure function
// of (seed, n), the counter-based discipline of mrsim's fault model.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const drillSeed = 0x5eed

func noTemp(t *testing.T, dir string) {
	t.Helper()
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
		t.Errorf("temp files left behind: %v", tmp)
	}
}

func TestCrashDrill(t *testing.T) {
	for _, u := range drillUsers {
		t.Run(u.name, func(t *testing.T) {
			t.Run("tail cut at every offset of the last frame", func(t *testing.T) {
				data, ends := u.written(t, 4)
				for cut := ends[2]; cut < ends[3]; cut++ {
					u.expect(t, u.crashed(t, data[:cut]), 4, 0, 1, 2)
				}
			})
			t.Run("single-byte flips", func(t *testing.T) {
				data, ends := u.written(t, 5)
				for n := uint64(0); n < 48; n++ {
					h := mix64(mix64(drillSeed) ^ mix64(n))
					pos := int(h % uint64(len(data)))
					flipped := bytes.Clone(data)
					flipped[pos] ^= 1 << (h >> 61)
					hit, start := 0, 0 // the record whose frame holds pos: it and all after it are lost
					for pos >= ends[hit] {
						start = ends[hit]
						hit++
					}
					want := upTo(hit)
					if u.keyed && pos-start >= 5 && pos-start < 5+16 {
						want = append(want, upTo(5)[hit+1:]...)
					}
					u.expect(t, u.crashed(t, flipped), 5, want...)
				}
			})
			t.Run("double open", func(t *testing.T) {
				dir := t.TempDir()
				a := u.mustOpen(t, dir)
				defer a.close()
				b, err := u.open(dir)
				if u.exclusive {
					if !errors.Is(err, framelog.ErrLocked) {
						t.Fatalf("second live open: err=%v, want ErrLocked", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				// Shared directory: the openers write disjoint files and
				// neither repairs the other's live tail.
				for i, s := range []drillStore{a, b, a} {
					if err := s.put(i); err != nil {
						t.Fatal(err)
					}
				}
				b.close()
				a.close()
				u.expect(t, dir, 3, 0, 1, 2)
			})

			// I/O faults the process survives: append 1 fails, append 2 is
			// acknowledged and must be recoverable.
			appendFaults := []struct {
				name string
				arm  func(*framelog.Faults)
				// undone: the failed frame was truncated away, so the
				// writer carries on in place.
				undone bool
			}{
				{"short write then success", func(f *framelog.Faults) { f.WriteLog = 1 }, true},
				{"failed fsync then success", func(f *framelog.Faults) { f.Sync = 1 }, true},
				{"short write that cannot be truncated away", func(f *framelog.Faults) { f.WriteLog, f.Truncate = 1, 1 }, false},
			}
			for _, c := range appendFaults {
				t.Run(c.name, func(t *testing.T) {
					faults := framelog.InjectFaults(t)
					dir := t.TempDir()
					s := u.mustOpen(t, dir)
					if err := s.put(0); err != nil {
						t.Fatal(err)
					}
					faults.Set(c.arm)
					if err := s.put(1); err == nil {
						t.Fatal("append under an injected fault reported success")
					}
					if s.errors() == 0 {
						t.Error("failed append left no trace in the Errors stat")
					}
					want := []int{0, 2}
					if err := s.put(2); !c.undone && !u.rotates {
						if err == nil {
							t.Fatal("append after an unrepaired failure reported success; it would be stranded behind the partial frame")
						}
						want = []int{0}
					} else if err != nil {
						t.Fatalf("append after the fault: %v", err)
					}
					s.close()
					u.expect(t, dir, 3, want...)
				})
			}

			if !u.rewrites {
				return
			}
			rewriteFaults := []struct {
				name string
				arm  func(*framelog.Faults)
			}{
				{"failed rename during rewrite", func(f *framelog.Faults) { f.Rename = 1 }},
				{"failed temp write during rewrite", func(f *framelog.Faults) { f.WriteTemp = 1 }},
			}
			for _, c := range rewriteFaults {
				t.Run(c.name, func(t *testing.T) {
					faults := framelog.InjectFaults(t)
					dir := t.TempDir()
					s := u.mustOpen(t, dir)
					for i := 0; i < 3; i++ {
						if err := s.put(i); err != nil {
							t.Fatal(err)
						}
					}
					s.close()
					faults.Set(c.arm)
					if s, err := u.open(dir); err == nil {
						s.close()
						t.Fatal("open succeeded although its rewrite failed")
					}
					noTemp(t, dir)
					// The old log is intact and appendable.
					s = u.mustOpen(t, dir)
					if err := s.put(3); err != nil {
						t.Fatal(err)
					}
					s.close()
					u.expect(t, dir, 4, 0, 1, 2, 3)
				})
			}
		})
	}
}

// TestCrashDrillLiveCompaction is the rewrite-fault class for the one user
// that rewrites while serving: a failed compaction must cost nothing but
// an Errors tick.
func TestCrashDrillLiveCompaction(t *testing.T) {
	for _, arm := range []func(*framelog.Faults){
		func(f *framelog.Faults) { f.Rename = 1 },
		func(f *framelog.Faults) { f.WriteTemp = 1 },
	} {
		faults := framelog.InjectFaults(t)
		dir := t.TempDir()
		j, _, err := service.OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		j.SetCompactionThresholds(1, 0)
		d := journalDrill{j: j}
		for i := 0; i < 2; i++ {
			if err := d.put(i); err != nil {
				t.Fatal(err)
			}
		}
		faults.Set(arm)
		if err := j.AppendState("job-0", service.Done); err != nil {
			t.Fatalf("the transition itself was appended; only the compaction after it failed: %v", err)
		}
		if st := j.Stats(); st.Errors != 1 || st.Compactions != 0 {
			t.Errorf("after the failed compaction: %+v, want 1 error and no compaction", st)
		}
		noTemp(t, dir)
		if err := d.put(2); err != nil {
			t.Fatalf("append after the failed compaction: %v", err)
		}
		j.Close()
		drillUsers[1].expect(t, dir, 3, 1, 2)
	}
}
