package whatif

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/workloads"
)

func key(n uint64) CacheKey {
	return CacheKey{Plan: wf.Fingerprint{n, n ^ 0x9e3779b97f4a7c15}}
}

func estimate(makespan float64) *Estimate {
	return &Estimate{
		Makespan: makespan,
		Jobs:     map[string]*JobEstimate{},
		Datasets: map[string]*DatasetEstimate{},
	}
}

func TestCacheGetOrCompute(t *testing.T) {
	c := NewCache(64)
	computes := 0
	get := func() (*Estimate, error) {
		est, err := c.GetOrCompute(context.Background(), key(1), []string{"j1"}, func() (*Estimate, error) {
			computes++
			return estimate(42), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return est, nil
	}
	first, _ := get()
	second, _ := get()
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
	if first != second {
		t.Fatal("hit did not return the cached estimate")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(64)
	boom := errors.New("boom")
	if _, err := c.GetOrCompute(context.Background(), key(2), nil, func() (*Estimate, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not poison the key: the next call recomputes.
	est, err := c.GetOrCompute(context.Background(), key(2), nil, func() (*Estimate, error) {
		return estimate(7), nil
	})
	if err != nil || est.Makespan != 7 {
		t.Fatalf("recompute after error: est=%v err=%v", est, err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Misses)
	}
}

// TestCacheLRUEviction: the capacity is exact and eviction follows recency
// of use across the whole cache, not insertion order.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	computes := 0
	get := func(k CacheKey) {
		t.Helper()
		if _, err := c.GetOrCompute(context.Background(), k, nil, func() (*Estimate, error) {
			computes++
			return estimate(1), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	k1, k2, k3 := key(1), key(2), key(3)
	get(k1)
	get(k2)
	get(k1) // a hit: k2 is now the least recently used
	get(k3) // the third entry evicts it
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries, capacity 2", st)
	}
	computes = 0
	get(k1)
	get(k3)
	if computes != 0 {
		t.Fatal("a recently used entry was evicted")
	}
	get(k2)
	if computes != 1 {
		t.Fatal("the least recently used entry was not evicted")
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(64)
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	const callers = 8
	results := make([]*Estimate, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			est, err := c.GetOrCompute(context.Background(), key(3), nil, func() (*Estimate, error) {
				computes.Add(1)
				<-release
				return estimate(9), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = est
		}(i)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times under concurrency, want 1 (single flight)", n)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers got different estimate pointers")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits", st, callers-1)
	}
}

func TestCacheConcurrentMixedKeys(t *testing.T) {
	c := NewCache(32) // small: force evictions under concurrency
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(uint64(i % 50))
				want := float64(i % 50)
				est, err := c.GetOrCompute(context.Background(), k, nil, func() (*Estimate, error) {
					return estimate(want), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if est.Makespan != want {
					t.Errorf("key %d returned makespan %v, want %v", i%50, est.Makespan, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCacheReset(t *testing.T) {
	c := NewCache(64)
	c.GetOrCompute(context.Background(), key(5), nil, func() (*Estimate, error) { return estimate(1), nil })
	c.Reset()
	st := c.Stats()
	if st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats after reset = %+v, want zeroes", st)
	}
}

// TestEstimatorTransparency is the package-level core guarantee: a cached
// estimator returns the exact estimate of an uncached one — on first
// computation, on a hit, and on a hit from a job-renamed clone of the plan.
func TestEstimatorTransparency(t *testing.T) {
	wl, err := workloads.Build("IR", workloads.Options{SizeFactor: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := profile.NewProfiler(wl.Cluster, 0.5, 1).Annotate(wl.Workflow, wl.DFS); err != nil {
		t.Fatal(err)
	}
	plain, err := New(wl.Cluster).Estimate(wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(0)
	cached := NewCached(wl.Cluster, cache)
	first, err := cached.Estimate(wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cached.Estimate(wl.Workflow)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("second estimate was not the cached value")
	}
	if first.Makespan != plain.Makespan || first.Fallback != plain.Fallback {
		t.Fatalf("cached makespan %v != plain %v", first.Makespan, plain.Makespan)
	}
	for id, je := range plain.Jobs {
		cj, ok := first.Jobs[id]
		if !ok {
			t.Fatalf("cached estimate missing job %s", id)
		}
		if *cj != *je {
			t.Fatalf("job %s: cached %+v != plain %+v", id, *cj, *je)
		}
	}

	// Renamed jobs: same fingerprint, remapped job keys, shared values.
	renamed := wl.Workflow.Clone()
	for i, j := range renamed.Jobs {
		j.ID = fmt.Sprintf("renamed-%d", i)
	}
	re, err := cached.Estimate(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if re.Makespan != plain.Makespan {
		t.Fatalf("renamed makespan %v != plain %v", re.Makespan, plain.Makespan)
	}
	if len(re.Jobs) != len(plain.Jobs) {
		t.Fatalf("renamed estimate has %d jobs, want %d", len(re.Jobs), len(plain.Jobs))
	}
	for i, j := range renamed.Jobs {
		if _, ok := re.Jobs[j.ID]; !ok {
			t.Fatalf("renamed estimate missing job %d (%s)", i, j.ID)
		}
	}
	if st := cache.Stats(); st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss", st)
	}
	if c := cached.Counts(); c.Requests != 3 || c.Computed != 1 {
		t.Fatalf("counts = (%d, %d), want (3, 1)", c.Requests, c.Computed)
	}
}

func TestClusterFingerprintDistinguishesClusters(t *testing.T) {
	a := mrsim.DefaultCluster()
	b := mrsim.DefaultCluster()
	if ClusterFingerprint(a) != ClusterFingerprint(b) {
		t.Fatal("identical clusters fingerprint differently")
	}
	b.VirtualScale *= 2
	if ClusterFingerprint(a) == ClusterFingerprint(b) {
		t.Fatal("different clusters share a fingerprint")
	}
	// On-disk pin: the digest is the Cluster component of every plan-store
	// key, so it must survive refactors. The literal was produced by the
	// code that predates the cache's move into this package.
	if got := ClusterFingerprint(mrsim.DefaultCluster()); got != 0xd7d4fd1f169ba59e {
		t.Fatalf("ClusterFingerprint(DefaultCluster()) = %#016x, want 0xd7d4fd1f169ba59e: existing plan stores would be re-keyed", got)
	}
	// Drift guard: ClusterFingerprint hand-enumerates every Cluster field.
	// A new cost-relevant field that it misses would let sessions with
	// different clusters share cache entries silently; fail loudly instead.
	if n := reflect.TypeOf(mrsim.Cluster{}).NumField(); n != 10 {
		t.Fatalf("mrsim.Cluster has %d fields; update ClusterFingerprint to cover the new ones, then this count", n)
	}
}
