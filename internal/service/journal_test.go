package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openTestJournal(t *testing.T, dir string) (*Journal, []IncompleteJob) {
	t.Helper()
	j, inc, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return j, inc
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, inc := openTestJournal(t, dir)
	if len(inc) != 0 {
		t.Fatalf("fresh journal recovered %d jobs", len(inc))
	}
	doc1 := []byte(`{"format":"stubby-optimize-request","plan":1}`)
	doc2 := []byte(`{"format":"stubby-optimize-request","plan":2}`)
	doc3 := []byte(`{"format":"stubby-optimize-request","plan":3}`)
	if err := j.AppendSubmit("job-1", doc1, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendState("job-1", Running); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendState("job-1", Done); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit("job-2", doc2, 1234567890); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendState("job-2", Running); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit("job-3", doc3, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendState("job-3", Canceled); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Submits != 3 || st.Transitions != 4 {
		t.Fatalf("stats = %+v, want 3 submits / 4 transitions", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: job-1 finished, job-3 was canceled — only job-2 (running at
	// the "crash") comes back, with its deadline intact.
	j2, inc := openTestJournal(t, dir)
	defer j2.Close()
	if len(inc) != 1 {
		t.Fatalf("recovered %d jobs, want 1 (got %+v)", len(inc), inc)
	}
	if inc[0].ID != "job-2" || !bytes.Equal(inc[0].Doc, doc2) || inc[0].DeadlineUnixMS != 1234567890 {
		t.Fatalf("recovered job = %+v", inc[0])
	}
	if st := j2.Stats(); st.Recovered != 1 || st.Compacted != 6 {
		t.Fatalf("reopen stats = %+v, want Recovered=1 Compacted=6", st)
	}
}

func TestJournalCanceledStaysCanceled(t *testing.T) {
	// A job canceled before the crash must not resurrect, in either record
	// order relative to other jobs.
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	if err := j.AppendSubmit("job-1", []byte(`{"a":1}`), 0); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSubmit("job-2", []byte(`{"a":2}`), 0); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendState("job-1", Running); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendState("job-1", Canceled); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, inc := openTestJournal(t, dir)
	defer j2.Close()
	if len(inc) != 1 || inc[0].ID != "job-2" {
		t.Fatalf("recovered %+v, want only job-2", inc)
	}
}

func TestJournalTornTail(t *testing.T) {
	// A crash mid-append leaves a partial record; reopening must keep every
	// earlier record and truncate the tail, never panic.
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	for i := 1; i <= 5; i++ {
		if err := j.AppendSubmit(fmt.Sprintf("job-%d", i), []byte(fmt.Sprintf(`{"n":%d}`, i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := filepath.Join(dir, "journal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 40; cut += 7 {
		torn := data[:len(data)-cut]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, inc := openTestJournal(t, dir)
		// Records are same-sized; cutting < one record's bytes loses only
		// job-5. Every survivor must be intact and in order.
		if len(inc) != 4 {
			t.Fatalf("cut %d: recovered %d jobs, want 4", cut, len(inc))
		}
		for i, in := range inc {
			if want := fmt.Sprintf("job-%d", i+1); in.ID != want {
				t.Fatalf("cut %d: job %d = %s, want %s", cut, i, in.ID, want)
			}
		}
		if st := j2.Stats(); st.TornBytes == 0 {
			t.Fatalf("cut %d: TornBytes = 0, want > 0", cut)
		}
		j2.Close()
		// The compaction must have truncated the damage physically.
		if fi, err := os.Stat(path); err != nil || fi.Size() >= int64(len(torn)) {
			t.Fatalf("cut %d: compaction did not shrink the log (size %d)", cut, fi.Size())
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJournalRandomCorruption(t *testing.T) {
	// Random single-byte corruption anywhere in the log: earlier records
	// survive, the damage freezes the tail, reopen never panics, and a
	// record completed before the corruption is never duplicated.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		dir := t.TempDir()
		j, _ := openTestJournal(t, dir)
		const jobs = 6
		for i := 1; i <= jobs; i++ {
			if err := j.AppendSubmit(fmt.Sprintf("job-%d", i), []byte(fmt.Sprintf(`{"n":%d}`, i)), 0); err != nil {
				t.Fatal(err)
			}
		}
		// Mark job-1 done so re-duplication would be observable.
		if err := j.AppendState("job-1", Done); err != nil {
			t.Fatal(err)
		}
		j.Close()
		path := filepath.Join(dir, "journal.log")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pos := rng.Intn(len(data))
		corrupt := append([]byte(nil), data...)
		corrupt[pos] ^= 0xff
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, inc := openTestJournal(t, dir)
		seen := map[string]int{}
		for _, in := range inc {
			seen[in.ID]++
			if seen[in.ID] > 1 {
				t.Fatalf("trial %d (byte %d): job %s recovered twice", trial, pos, in.ID)
			}
		}
		// Recovery is a prefix of the true in-flight set: jobs 2..k for some
		// k, plus possibly job-1 if its Done record fell past the damage.
		if len(inc) > jobs {
			t.Fatalf("trial %d: recovered %d jobs from a %d-job log", trial, len(inc), jobs)
		}
		j2.Close()
	}
}

func TestJournalBadMagicFreezesTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	if err := j.AppendSubmit("job-1", []byte(`{"n":1}`), 0); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := filepath.Join(dir, "journal.log")
	data, _ := os.ReadFile(path)
	// Append garbage that starts with a valid-looking length but bad magic,
	// then a full valid-framed record with a wrong CRC.
	const jrnHeaderSize = 4 + 1 + 4 + 4
	garbage := make([]byte, jrnHeaderSize+4)
	binary.BigEndian.PutUint32(garbage, 0xdeadbeef)
	data = append(data, garbage...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, inc := openTestJournal(t, dir)
	defer j2.Close()
	if len(inc) != 1 || inc[0].ID != "job-1" {
		t.Fatalf("recovered %+v, want job-1 only", inc)
	}
}

func TestJournalDoubleOpenFails(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	defer j.Close()
	if _, _, err := OpenJournal(dir); err == nil {
		t.Fatal("second live OpenJournal succeeded; want flock failure")
	}
}

func TestJournalConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j, _ := openTestJournal(t, dir)
	var wg sync.WaitGroup
	const writers = 8
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("job-%d-%d", w, i)
				if err := j.AppendSubmit(id, []byte(`{"x":1}`), 0); err != nil {
					t.Error(err)
					return
				}
				if err := j.AppendState(id, Done); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()
	j2, inc := openTestJournal(t, dir)
	defer j2.Close()
	if len(inc) != 0 {
		t.Fatalf("recovered %d jobs, all were terminal", len(inc))
	}
}

func TestBrokerSubscribeFrom(t *testing.T) {
	b := NewBroker()
	for i := 0; i < 10; i++ {
		b.Publish(i)
	}
	b.Close()

	// Every cut point: prefix via Subscribe, suffix via SubscribeFrom; the
	// concatenation must equal the uninterrupted stream.
	ctx := context.Background()
	var full []any
	for ev := range b.Subscribe(ctx) {
		full = append(full, ev)
	}
	if len(full) != 10 {
		t.Fatalf("full stream has %d events", len(full))
	}
	for cut := 0; cut <= 10; cut++ {
		var got []any
		i := 0
		for ev := range b.Subscribe(ctx) {
			if i == cut {
				break
			}
			got = append(got, ev)
			i++
		}
		for ev := range b.SubscribeFrom(ctx, cut) {
			got = append(got, ev)
		}
		if len(got) != len(full) {
			t.Fatalf("cut %d: %d events, want %d", cut, len(got), len(full))
		}
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("cut %d: event %d = %v, want %v", cut, i, got[i], full[i])
			}
		}
	}

	// Past the log on a closed broker: immediately closed channel.
	if _, ok := <-b.SubscribeFrom(ctx, 99); ok {
		t.Fatal("subscription past a closed log yielded an event")
	}
}

func TestBrokerSubscribeFromLive(t *testing.T) {
	// A resume cursor beyond the current log on a live broker waits for the
	// log to grow rather than replaying anything twice.
	b := NewBroker()
	b.Publish("a")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ch := b.SubscribeFrom(ctx, 1)
	go func() {
		b.Publish("b")
		b.Close()
	}()
	var got []any
	for ev := range ch {
		got = append(got, ev)
	}
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("resumed events = %v, want [b]", got)
	}
}

func TestJobDeadline(t *testing.T) {
	j := NewJobWithDeadline("job-1", time.Now().Add(10*time.Millisecond), func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	j.Execute()
	if j.State() != Failed {
		t.Fatalf("state = %s, want failed", j.State())
	}
	if _, err := j.Result(); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestCancelRacesCompletion(t *testing.T) {
	// Concurrent Cancel racing the job's natural completion: whichever wins,
	// the job ends in exactly one terminal state, Done() closes exactly
	// once, and the final StateChange event matches the terminal state.
	for i := 0; i < 200; i++ {
		release := make(chan struct{})
		j := NewJob("job-r", func(ctx context.Context) (any, error) {
			<-release
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
				return "ok", nil
			}
		})
		go j.Execute()
		go func() {
			close(release)
		}()
		if i%2 == 0 {
			j.Cancel()
		} else {
			go j.Cancel()
		}
		<-j.Done()
		st := j.State()
		if st != Done && st != Canceled {
			t.Fatalf("iteration %d: terminal state %s", i, st)
		}
		var last StateChange
		for ev := range j.Events(context.Background()) {
			if sc, ok := ev.(StateChange); ok {
				last = sc
			}
		}
		if last.State != st {
			t.Fatalf("iteration %d: last event state %s != job state %s", i, last.State, st)
		}
	}
}
