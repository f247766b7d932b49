package planstore

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stubby-mr/stubby/internal/wf"
)

func claimKey(n uint64) Key {
	return Key{Plan: wf.Fingerprint{n, ^n}, Cluster: 7, Planner: "stubby", Seed: 1}
}

// TestClaimCrossProcessSingleFlight opens several stores over one directory
// (the in-process stand-in for separate replicas) and races identical
// GetOrCompute calls through all of them: exactly one compute must run
// cluster-wide, every caller must get the same bytes, and the claim file
// must be gone afterwards.
func TestClaimCrossProcessSingleFlight(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	const replicas = 3
	const callersPer = 4
	stores := make([]*Store, replicas)
	for i := range stores {
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open replica %d: %v", i, err)
		}
		defer s.Close()
		stores[i] = s
	}
	key := claimKey(101)
	var computes atomic.Int64
	want := []byte(`{"plan":"claimed"}`)
	var wg sync.WaitGroup
	errs := make(chan error, replicas*callersPer)
	for ri, s := range stores {
		for c := 0; c < callersPer; c++ {
			wg.Add(1)
			go func(ri, c int, s *Store) {
				defer wg.Done()
				doc, _, err := s.GetOrCompute(context.Background(), key, func() ([]byte, error) {
					computes.Add(1)
					time.Sleep(30 * time.Millisecond) // widen the race window
					return want, nil
				})
				if err != nil {
					errs <- fmt.Errorf("replica %d caller %d: %v", ri, c, err)
					return
				}
				if string(doc) != string(want) {
					errs <- fmt.Errorf("replica %d caller %d: doc %q", ri, c, doc)
				}
			}(ri, c, s)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("cluster-wide computes = %d, want 1", n)
	}
	var total Stats
	for _, s := range stores {
		st := s.Stats()
		total.Computes += st.Computes
		total.Claims += st.Claims
		total.ClaimHits += st.ClaimHits
	}
	if total.Computes != 1 {
		t.Fatalf("summed Stats.Computes = %d, want 1", total.Computes)
	}
	if total.Claims < 1 {
		t.Fatalf("summed Stats.Claims = %d, want >= 1", total.Claims)
	}
	// Replicas that lost the claim race must have been answered by the
	// winner's publish, not their own compute.
	if replicas > 1 && total.ClaimHits == 0 {
		t.Fatalf("summed Stats.ClaimHits = 0, want > 0 across %d replicas", replicas)
	}
	if _, err := os.Stat(stores[0].claimPath(key.Address())); !os.IsNotExist(err) {
		t.Fatalf("claim file still present after release: err=%v", err)
	}
}

// TestClaimFailedComputeReleases proves a failed compute releases the claim
// so a second replica can take the computation over instead of inheriting
// the failure.
func TestClaimFailedComputeReleases(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatalf("Open a: %v", err)
	}
	defer a.Close()
	b, err := Open(dir)
	if err != nil {
		t.Fatalf("Open b: %v", err)
	}
	defer b.Close()
	key := claimKey(202)
	boom := fmt.Errorf("synthetic optimizer failure")
	if _, _, err := a.GetOrCompute(context.Background(), key, func() ([]byte, error) {
		return nil, boom
	}); err != boom {
		t.Fatalf("replica a error = %v, want %v", err, boom)
	}
	doc, hit, err := b.GetOrCompute(context.Background(), key, func() ([]byte, error) {
		return []byte(`{"plan":"recovered"}`), nil
	})
	if err != nil || hit {
		t.Fatalf("replica b after failure: doc=%q hit=%v err=%v", doc, hit, err)
	}
	if string(doc) != `{"plan":"recovered"}` {
		t.Fatalf("replica b doc = %q", doc)
	}
}

// TestClaimStaleFileSuperseded simulates a replica that crashed mid-compute:
// its claim file is left on disk but no process holds the flock. A fresh
// replica must acquire the claim straight through the stale file.
func TestClaimStaleFileSuperseded(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	key := claimKey(303)
	// A crashed owner leaves the file; its flock died with the process.
	if err := os.WriteFile(s.claimPath(key.Address()), nil, 0o644); err != nil {
		t.Fatalf("plant stale claim: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		doc, hit, err := s.GetOrCompute(context.Background(), key, func() ([]byte, error) {
			return []byte(`{"plan":"takeover"}`), nil
		})
		if err != nil || hit || string(doc) != `{"plan":"takeover"}` {
			t.Errorf("takeover: doc=%q hit=%v err=%v", doc, hit, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("takeover of stale claim did not complete; stale file blocked the claim")
	}
}

// TestClaimWaiterCancellation cancels a waiter stuck behind a foreign
// claim; the wait must end promptly with the context's error.
func TestClaimWaiterCancellation(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatalf("Open a: %v", err)
	}
	defer a.Close()
	b, err := Open(dir)
	if err != nil {
		t.Fatalf("Open b: %v", err)
	}
	defer b.Close()
	key := claimKey(404)
	cl, ok := a.tryClaim(key.Address())
	if !ok {
		t.Fatal("initial tryClaim failed")
	}
	defer cl.release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, _, err = b.GetOrCompute(ctx, key, func() ([]byte, error) {
		t.Error("compute ran while the claim was held elsewhere")
		return nil, nil
	})
	if err != context.Canceled {
		t.Fatalf("canceled waiter error = %v, want context.Canceled", err)
	}
}

// TestClaimWaiterServedByPublish parks a waiter behind a held claim, then
// publishes the document from the claim holder: the waiter must return the
// published bytes as a hit and count a ClaimHit.
func TestClaimWaiterServedByPublish(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatalf("Open a: %v", err)
	}
	defer a.Close()
	b, err := Open(dir)
	if err != nil {
		t.Fatalf("Open b: %v", err)
	}
	defer b.Close()
	key := claimKey(505)
	cl, ok := a.tryClaim(key.Address())
	if !ok {
		t.Fatal("initial tryClaim failed")
	}
	type res struct {
		doc []byte
		hit bool
		err error
	}
	ch := make(chan res, 1)
	go func() {
		doc, hit, err := b.GetOrCompute(context.Background(), key, func() ([]byte, error) {
			return []byte(`{"plan":"wrong-owner"}`), nil
		})
		ch <- res{doc, hit, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter park on the claim
	if err := a.Put(key, []byte(`{"plan":"published"}`)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	cl.release()
	select {
	case r := <-ch:
		if r.err != nil || !r.hit || string(r.doc) != `{"plan":"published"}` {
			t.Fatalf("waiter got doc=%q hit=%v err=%v", r.doc, r.hit, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never unblocked after publish")
	}
	if st := b.Stats(); st.ClaimWaits == 0 || st.ClaimHits == 0 {
		t.Fatalf("waiter stats = %+v, want ClaimWaits>0 and ClaimHits>0", st)
	}
}
