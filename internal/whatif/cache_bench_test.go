package whatif

import (
	"context"
	"testing"

	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/workloads"
)

func benchWorkflow(b *testing.B) (*wf.Workflow, *workloads.Workload) {
	wl, err := workloads.Build("BA", workloads.Options{SizeFactor: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := profile.NewProfiler(wl.Cluster, 0.5, 1).Annotate(wl.Workflow, wl.DFS); err != nil {
		b.Fatal(err)
	}
	return wl.Workflow, wl
}

// BenchmarkFingerprint measures one workflow fingerprint with a warm Hasher
// — the per-request overhead the cache adds on top of a lookup.
func BenchmarkFingerprint(b *testing.B) {
	w, _ := benchWorkflow(b)
	h := wf.NewHasher()
	h.Workflow(w) // warm the profile memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Workflow(w)
	}
}

// BenchmarkEstimateUncached is the baseline the cache competes with.
func BenchmarkEstimateUncached(b *testing.B) {
	w, wl := benchWorkflow(b)
	est := New(wl.Cluster)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHit measures the raw Cache.GetOrCompute hit path alone
// (no fingerprinting): lock, LRU touch, job-ID comparison. It must not
// allocate — TestCacheHitZeroAllocs enforces that.
func BenchmarkCacheHit(b *testing.B) {
	w, wl := benchWorkflow(b)
	c := NewCache(0)
	key := CacheKey{Plan: wf.FingerprintWorkflow(w), Cluster: ClusterFingerprint(wl.Cluster)}
	jobIDs := jobIDsOf(w)
	compute := func() (*Estimate, error) { return New(wl.Cluster).Estimate(w) }
	if _, err := c.GetOrCompute(context.Background(), key, jobIDs, compute); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetOrCompute(context.Background(), key, jobIDs, compute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheStats measures the stats snapshot /statsz polls.
func BenchmarkCacheStats(b *testing.B) {
	c := NewCache(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Stats()
	}
}

// TestCacheHitZeroAllocs pins the hit path's allocation count at zero. The
// cache is not hot — BENCH_paper.json counts 19–121 whole-plan estimates per
// optimization against 4,894–49,721 What-if requests (the rest are delta
// estimates that bypass it), of which cache-on answers 5–13 — so the pin is
// about a hit staying a lookup: lock, LRU touch, job-ID comparison.
func TestCacheHitZeroAllocs(t *testing.T) {
	wl, err := workloads.Build("BA", workloads.Options{SizeFactor: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := profile.NewProfiler(wl.Cluster, 0.5, 1).Annotate(wl.Workflow, wl.DFS); err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	key := CacheKey{Plan: wf.FingerprintWorkflow(wl.Workflow), Cluster: ClusterFingerprint(wl.Cluster)}
	jobIDs := jobIDsOf(wl.Workflow)
	compute := func() (*Estimate, error) { return New(wl.Cluster).Estimate(wl.Workflow) }
	if _, err := c.GetOrCompute(context.Background(), key, jobIDs, compute); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := c.GetOrCompute(context.Background(), key, jobIDs, compute); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit path allocates %.1f times per lookup, want 0", allocs)
	}
}

// jobIDsOf extracts the workflow's job-ID vector in Jobs slice order.
func jobIDsOf(w *wf.Workflow) []string {
	ids := make([]string, len(w.Jobs))
	for i, j := range w.Jobs {
		ids[i] = j.ID
	}
	return ids
}

// BenchmarkEstimateCacheHit measures the full cached path on a hit:
// fingerprint + lookup.
func BenchmarkEstimateCacheHit(b *testing.B) {
	w, wl := benchWorkflow(b)
	est := NewCached(wl.Cluster, NewCache(0))
	if _, err := est.Estimate(w); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(w); err != nil {
			b.Fatal(err)
		}
	}
}
