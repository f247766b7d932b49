package whatif

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/stats"
	"github.com/stubby-mr/stubby/internal/wf"
)

// The estimate cache memoizes What-if cost estimates under canonical workflow
// fingerprints (package wf), so a search that revisits a cost-equivalent
// plan — the same structure, configurations, profiles, and layouts,
// regardless of job-ID renaming — reuses the earlier answer instead of
// re-running the estimator. The cache is sharded and concurrent-safe, bounds
// memory with per-shard LRU eviction, deduplicates concurrent computations
// of the same plan with a single-flight guard, and counts hits, misses, and
// evictions for observability.
//
// Cached *Estimate values are shared between callers and MUST be treated as
// immutable; every consumer in this repository only reads them.

// DefaultCacheCapacity bounds a cache built with NewCache(0). Estimates are
// small (per-job aggregates, not per-task data), so thousands of entries
// cost a few MB at most.
const DefaultCacheCapacity = 8192

const numShards = 16 // power of two; key[0] low bits select the shard

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

// flight tracks one in-progress computation other callers can wait on.
type flight struct {
	done chan struct{}
	ent  *entry
	err  error
}

type shard struct {
	mu      sync.Mutex
	entries map[CacheKey]*list.Element // of *entry
	lru     *list.List                 // front = most recently used
	flights map[CacheKey]*flight
	// The counters are atomics (size mirrors lru.Len()) so Stats can
	// snapshot them without taking shard locks — a /statsz poll never
	// contends with the optimizer's hot lookup path.
	hits    atomic.Uint64
	misses  atomic.Uint64
	evicted atomic.Uint64
	size    atomic.Int64
}

// Cache is a sharded, LRU-bounded, single-flight memo of What-if estimates.
// It is safe for concurrent use and may be shared across estimators,
// optimizers, and sessions (that is the point: an OptimizeAll fan-out over
// workflows sharing plans amortizes estimates through one shared cache).
type Cache struct {
	shards      [numShards]*shard
	capPerShard int
}

// NewCache builds a cache bounded to roughly capacity entries (<= 0 uses
// DefaultCacheCapacity). The bound is enforced per shard, so the effective
// capacity is capacity rounded up to a multiple of the shard count.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	per := (capacity + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{capPerShard: per}
	for i := range c.shards {
		c.shards[i] = &shard{
			entries: make(map[CacheKey]*list.Element),
			lru:     list.New(),
			flights: make(map[CacheKey]*flight),
		}
	}
	return c
}

// Capacity returns the total entry bound.
func (c *Cache) Capacity() int { return c.capPerShard * numShards }

func (c *Cache) shard(k CacheKey) *shard {
	return c.shards[k.Plan[0]&(numShards-1)]
}

// GetOrCompute returns the estimate for key, running compute on a miss.
// Concurrent callers with the same key share one computation (single
// flight); errors are returned to every waiter and never cached. jobIDs is
// the calling workflow's job-ID vector in Jobs slice order: on a hit whose
// cached vector differs (fingerprint-equal workflow with renamed jobs), the
// returned estimate is re-keyed position-for-position, which the
// fingerprint's job-order sensitivity makes sound.
func (c *Cache) GetOrCompute(key CacheKey, jobIDs []string,
	compute func() (*Estimate, error)) (*Estimate, error) {

	sh := c.shard(key)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		sh.lru.MoveToFront(el)
		sh.hits.Add(1)
		ent := el.Value.(*entry)
		sh.mu.Unlock()
		return remap(ent, jobIDs), nil
	}
	if fl, ok := sh.flights[key]; ok {
		sh.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			// The flight's owner failed. Other waiters surface the same
			// error; nothing was cached.
			return nil, fl.err
		}
		sh.hits.Add(1)
		return remap(fl.ent, jobIDs), nil
	}
	fl := &flight{done: make(chan struct{})}
	sh.flights[key] = fl
	sh.misses.Add(1)
	sh.mu.Unlock()

	est, err := compute()
	sh.mu.Lock()
	delete(sh.flights, key)
	if err != nil {
		sh.mu.Unlock()
		fl.err = err
		close(fl.done)
		return nil, err
	}
	ent := &entry{key: key, jobIDs: append([]string(nil), jobIDs...), est: est}
	el := sh.lru.PushFront(ent)
	sh.entries[key] = el
	sh.size.Add(1)
	for sh.lru.Len() > c.capPerShard {
		old := sh.lru.Back()
		sh.lru.Remove(old)
		delete(sh.entries, old.Value.(*entry).key)
		sh.evicted.Add(1)
		sh.size.Add(-1)
	}
	sh.mu.Unlock()
	fl.ent = ent
	close(fl.done)
	return est, nil
}

// Stats snapshots the cache counters (declared in internal/stats), summed
// across shards. The counters are atomics, so the snapshot takes no locks
// and never contends with concurrent lookups (each individual counter is
// exact; the sum is a consistent-enough point-in-time view for monitoring).
func (c *Cache) Stats() stats.Cache {
	out := stats.Cache{Capacity: c.Capacity()}
	for _, sh := range c.shards {
		out.Hits += sh.hits.Load()
		out.Misses += sh.misses.Load()
		out.Evictions += sh.evicted.Load()
		out.Entries += int(sh.size.Load())
	}
	return out
}

// Reset drops every entry and zeroes the counters. In-flight computations
// complete but their results land in the cleared maps as usual.
func (c *Cache) Reset() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.entries = make(map[CacheKey]*list.Element)
		sh.lru = list.New()
		sh.hits.Store(0)
		sh.misses.Store(0)
		sh.evicted.Store(0)
		sh.size.Store(0)
		sh.mu.Unlock()
	}
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
