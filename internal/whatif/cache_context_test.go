package whatif

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// contextWorkload builds one small profiled workload for the context
// tests (shared; estimation treats it read-only).
var (
	ctxWlOnce sync.Once
	ctxWl     *workloads.Workload
	ctxWlErr  error
)

func contextWorkload(t *testing.T) *workloads.Workload {
	t.Helper()
	ctxWlOnce.Do(func() {
		wl, err := workloads.Build("IR", workloads.Options{SizeFactor: 0.05, Seed: 1})
		if err != nil {
			ctxWlErr = err
			return
		}
		if err := profile.NewProfiler(wl.Cluster, 0.5, 1).Annotate(wl.Workflow, wl.DFS); err != nil {
			ctxWlErr = err
			return
		}
		ctxWl = wl
	})
	if ctxWlErr != nil {
		t.Fatal(ctxWlErr)
	}
	return ctxWl
}

// TestEstimateContextCanceledNotCached: a canceled computation surfaces
// ctx's error, caches nothing, and the next live caller computes cleanly.
func TestEstimateContextCanceledNotCached(t *testing.T) {
	wl := contextWorkload(t)
	cache := NewCache(0)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewCached(wl.Cluster, cache).EstimateContext(canceled, wl.Workflow); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled estimate = %v, want context.Canceled", err)
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("canceled computation was cached: %+v", st)
	}
	est, err := NewCached(wl.Cluster, cache).EstimateContext(context.Background(), wl.Workflow)
	if err != nil || est == nil {
		t.Fatalf("live estimate after canceled one = %v, %v", est, err)
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Fatalf("live computation not cached: %+v", st)
	}
}

// TestEstimateContextCancelDoesNotPoisonWaiters: when a canceled caller
// owns the single flight, concurrent live callers on the same key must
// still get an estimate — their shared-flight error is retried, never
// surfaced. (The overlap is probabilistic; the invariant checked — live
// callers never see a cancellation error — must hold on every schedule.)
func TestEstimateContextCancelDoesNotPoisonWaiters(t *testing.T) {
	wl := contextWorkload(t)
	for round := 0; round < 30; round++ {
		cache := NewCache(0) // fresh: every round recomputes, so flights form
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // the canceled caller, racing to own the flight
			defer wg.Done()
			_, _ = NewCached(wl.Cluster, cache).EstimateContext(ctx, wl.Workflow)
		}()
		var liveErr error
		go func() { // the live caller that must never be poisoned
			defer wg.Done()
			_, liveErr = NewCached(wl.Cluster, cache).EstimateContext(context.Background(), wl.Workflow)
		}()
		cancel()
		wg.Wait()
		if liveErr != nil {
			t.Fatalf("round %d: live caller failed with %v", round, liveErr)
		}
	}
}

// TestCacheWaiterHonoursOwnContext: a caller waiting on another estimator's
// in-flight estimate of the same plan stops waiting when its own context
// ends, however long the owner takes. The owner is held inside compute until
// the waiter has returned.
func TestCacheWaiterHonoursOwnContext(t *testing.T) {
	wl := contextWorkload(t)
	cache := NewCache(0)
	key := CacheKey{Plan: wf.FingerprintWorkflow(wl.Workflow), Cluster: ClusterFingerprint(wl.Cluster)}
	computing, release := make(chan struct{}), make(chan struct{})
	ownerDone := make(chan error, 1)
	go func() {
		_, err := cache.GetOrCompute(context.Background(), key, jobIDsOf(wl.Workflow), func() (*Estimate, error) {
			close(computing)
			<-release
			return New(wl.Cluster).Estimate(wl.Workflow)
		})
		ownerDone <- err
	}()
	<-computing // the flight is registered: the next caller on this key waits

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	waiterDone := make(chan error, 1)
	go func() {
		_, err := NewCached(wl.Cluster, cache).EstimateContext(canceled, wl.Workflow)
		waiterDone <- err
	}()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("canceled waiter still blocked on the owner's flight")
	}
	close(release)
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner: %v", err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want the owner's 1 miss and 1 entry, no hit", st)
	}
}
