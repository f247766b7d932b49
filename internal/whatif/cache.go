package whatif

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"slices"
	"sync"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/stats"
	"github.com/stubby-mr/stubby/internal/wf"
)

// The estimate cache memoizes What-if cost estimates under canonical workflow
// fingerprints (package wf), so a search that revisits a cost-equivalent
// plan — the same structure, configurations, profiles, and layouts,
// regardless of job-ID renaming — reuses the earlier answer instead of
// re-running the estimator. The cache is concurrent-safe, bounds memory with
// LRU eviction, deduplicates concurrent computations of the same plan with a
// single-flight guard, and counts hits, misses, and evictions for
// observability. Only whole-plan estimates come here — tens to a hundred or
// so per optimization, under half a percent of its What-if requests — so one
// mutex guards all of it.
//
// Cached *Estimate values are shared between callers and MUST be treated as
// immutable; every consumer in this repository only reads them.

// DefaultCacheCapacity bounds a cache built with NewCache(0). Estimates are
// small (per-job aggregates, not per-task data), so thousands of entries
// cost a few MB at most.
const DefaultCacheCapacity = 8192

// CacheKey identifies one (workflow, cluster) estimation question.
type CacheKey struct {
	// Plan is the canonical workflow fingerprint.
	Plan wf.Fingerprint
	// Cluster digests the cluster description, so one cache shared across
	// sessions with different clusters never cross-pollinates.
	Cluster uint64
}

// entry is one cached estimate plus the job-ID vector of the workflow that
// computed it (in Jobs slice order), so a hit from a fingerprint-equal
// workflow with renamed jobs can be re-keyed before use.
type entry struct {
	key    CacheKey
	jobIDs []string
	est    *Estimate
}

// flight tracks one in-progress computation other callers can wait on. ent
// and err are written before done is closed and read only after.
type flight struct {
	done chan struct{}
	ent  *entry
	err  error
}

// Cache is an LRU-bounded, single-flight memo of What-if estimates. It is
// safe for concurrent use and may be shared across estimators, optimizers,
// and sessions (that is the point: an OptimizeAll fan-out over workflows
// sharing plans amortizes estimates through one shared cache).
type Cache struct {
	capacity int

	mu      sync.Mutex
	entries map[CacheKey]*list.Element // of *entry
	lru     *list.List                 // front = most recently used
	flights map[CacheKey]*flight
	hits    uint64
	misses  uint64
	evicted uint64
}

// NewCache builds a cache bounded to capacity entries (<= 0 uses
// DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[CacheKey]*list.Element),
		lru:      list.New(),
		flights:  make(map[CacheKey]*flight),
	}
}

// GetOrCompute returns the estimate for key, running compute on a miss.
// Concurrent callers with the same key share one computation (single
// flight); errors are returned to every waiter and never cached. A waiter
// stops waiting with ctx.Err() when its own ctx ends. When the computation it
// waited on ended with that caller's cancellation or deadline while ctx is
// still live, it starts over — another caller's cancellation must not poison
// this one, and the failed flight is gone, so the retry finds the estimate or
// a newer flight, or computes. jobIDs is the calling workflow's job-ID vector
// in Jobs slice order: on a hit whose cached vector differs
// (fingerprint-equal workflow with renamed jobs), the returned estimate is
// re-keyed position-for-position, which the fingerprint's job-order
// sensitivity makes sound.
func (c *Cache) GetOrCompute(ctx context.Context, key CacheKey, jobIDs []string,
	compute func() (*Estimate, error)) (*Estimate, error) {

	c.mu.Lock()
	for {
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			c.hits++
			c.mu.Unlock()
			return remap(el.Value.(*entry), jobIDs), nil
		}
		fl, ok := c.flights[key]
		if !ok {
			break
		}
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		c.mu.Lock()
		if fl.err == nil {
			c.hits++
			c.mu.Unlock()
			return remap(fl.ent, jobIDs), nil
		}
		ownerGaveUp := errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded)
		if !ownerGaveUp || ctx.Err() != nil {
			c.mu.Unlock()
			return nil, fl.err
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	c.misses++
	c.mu.Unlock()

	est, err := compute()
	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		fl.ent = &entry{key: key, jobIDs: append([]string(nil), jobIDs...), est: est}
		c.entries[key] = c.lru.PushFront(fl.ent)
		for c.lru.Len() > c.capacity {
			old := c.lru.Remove(c.lru.Back()).(*entry)
			delete(c.entries, old.key)
			c.evicted++
		}
	}
	c.mu.Unlock()
	fl.err = err
	close(fl.done)
	return est, err
}

// Stats snapshots the cache counters (declared in internal/stats) under the
// cache's lock, so the four numbers describe one moment.
func (c *Cache) Stats() stats.Cache {
	c.mu.Lock()
	defer c.mu.Unlock()
	return stats.Cache{Hits: c.hits, Misses: c.misses, Evictions: c.evicted,
		Entries: c.lru.Len(), Capacity: c.capacity}
}

// Reset drops every entry and zeroes the counters. In-flight computations
// complete but their results land in the cleared maps as usual.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[CacheKey]*list.Element)
	c.lru = list.New()
	c.hits, c.misses, c.evicted = 0, 0, 0
}

// remap returns the cached estimate re-keyed to the caller's job IDs. When
// the vectors already agree (the overwhelmingly common case) the cached
// value is returned as-is; otherwise the Jobs map is rebuilt with the
// caller's IDs, sharing the per-job and per-dataset values.
func remap(ent *entry, jobIDs []string) *Estimate {
	if slices.Equal(ent.jobIDs, jobIDs) {
		return ent.est
	}
	out := &Estimate{
		Makespan: ent.est.Makespan,
		Fallback: ent.est.Fallback,
		Jobs:     make(map[string]*JobEstimate, len(ent.est.Jobs)),
		Datasets: ent.est.Datasets,
	}
	for i, old := range ent.jobIDs {
		if i >= len(jobIDs) {
			break
		}
		if je, ok := ent.est.Jobs[old]; ok {
			out.Jobs[jobIDs[i]] = je
		}
	}
	return out
}

// ClusterFingerprint digests the cluster description for cache keying. The
// cluster is a flat struct of scalars, hashed field by field.
func ClusterFingerprint(c *mrsim.Cluster) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wu(uint64(c.Nodes))
	wu(uint64(c.MapSlotsPerNode))
	wu(uint64(c.ReduceSlotsPerNode))
	wu(math.Float64bits(c.DiskMBps))
	wu(math.Float64bits(c.NetMBps))
	wu(math.Float64bits(c.TaskSetupSec))
	wu(math.Float64bits(c.SortCPUPerRecord))
	wu(math.Float64bits(c.CompressRatio))
	wu(math.Float64bits(c.CompressCPUSecPerMB))
	wu(math.Float64bits(c.VirtualScale))
	return h.Sum64()
}
