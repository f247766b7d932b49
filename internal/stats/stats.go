// Package stats declares the counter snapshot of every /statsz section,
// once: the struct each subsystem fills (its own Stats type is an alias of
// the one here), the public package re-exports, and the wire carries — the
// JSON tags are the wire form, so there is no second declaration to keep in
// step and nothing to copy between. Adding a counter is one field here plus
// the increment in its owner.
//
// The package imports nothing, so that every owner and planio can import
// it: catalog imports planio, and planio's tests reach whatif (which owns
// the estimate cache) through the optimizer, so neither side of that pair
// could hold the types for both.
package stats

// Cache is a point-in-time snapshot of the estimate cache's effectiveness
// counters.
type Cache struct {
	// Hits counts lookups answered from the cache, including lookups that
	// waited on another caller's in-flight computation instead of starting
	// their own.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that had to run the estimator.
	Misses uint64 `json:"misses"`
	// Evictions counts entries dropped by the LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of cached estimates.
	Entries int `json:"entries"`
	// Capacity is the maximum number of cached estimates.
	Capacity int `json:"capacity"`
}

// Lookups returns the total number of cache consultations.
func (s Cache) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate returns Hits over Lookups in [0, 1] (zero when empty).
func (s Cache) HitRate() float64 { return rate(s.Hits, s.Misses) }

// Store is a point-in-time snapshot of plan-store activity. All counters
// are cumulative since Open.
type Store struct {
	// Hits counts lookups answered without running compute: memory hits,
	// disk hits, and single-flight waits on another caller's computation.
	Hits uint64 `json:"hits"`
	// MemHits / DiskHits split Hits by where the bytes came from (waits on
	// an in-flight computation count toward Hits only).
	MemHits  uint64 `json:"memHits"`
	DiskHits uint64 `json:"diskHits"`
	// Misses counts lookups that found nothing anywhere.
	Misses uint64 `json:"misses"`
	// Computes counts GetOrCompute calls that actually ran compute — the
	// number of optimizations the whole process paid for.
	Computes uint64 `json:"computes"`
	// Puts counts records appended to this writer's segment.
	Puts uint64 `json:"puts"`
	// Evictions counts in-memory LRU evictions (disk entries are never
	// evicted).
	Evictions uint64 `json:"evictions"`
	// BytesWritten / BytesRead count record payload traffic to/from disk.
	BytesWritten uint64 `json:"bytesWritten"`
	BytesRead    uint64 `json:"bytesRead"`
	// Errors counts persistence failures (a failed append, or a damaged
	// record a scan or read skipped); reads and computes still succeed
	// when it rises.
	Errors uint64 `json:"errors"`
	// Entries is the number of distinct addresses known (memory + disk).
	Entries int `json:"entries"`
	// Segments is the number of segment files in the directory.
	Segments int `json:"segments"`
	// Claims counts cross-process claims this store acquired — the times it
	// became the cluster-wide computing replica for an address.
	Claims uint64 `json:"claims,omitempty"`
	// ClaimWaits counts GetOrCompute calls that found another replica's
	// live claim and waited on it instead of computing.
	ClaimWaits uint64 `json:"claimWaits,omitempty"`
	// ClaimHits counts waits answered by another replica's publish — the
	// cross-replica single-flight hits: optimizations this replica was
	// about to run that another replica's concurrent computation covered.
	ClaimHits uint64 `json:"claimHits,omitempty"`
}

// HitRate returns Hits over (Hits+Misses) in [0, 1] (zero when empty).
func (s Store) HitRate() float64 { return rate(s.Hits, s.Misses) }

// Reuse is a point-in-time snapshot of sub-plan reuse catalog activity.
// Counters are cumulative since Open.
type Reuse struct {
	// Entries is the current number of distinct fingerprints held.
	Entries int `json:"entries"`
	// Puts counts entries published (including overwrites of a fingerprint).
	Puts uint64 `json:"puts"`
	// Hits / Misses count Lookup outcomes; a CRC or decode failure on read
	// counts as a miss (and an Error).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Compacted is how many stale records (duplicate fingerprints) the
	// reopening compaction dropped.
	Compacted int `json:"compacted"`
	// TornBytes is how many trailing bytes the reopening scan discarded as a
	// torn or corrupt tail.
	TornBytes int64 `json:"tornBytes"`
	// BytesWritten counts record bytes appended (headers included).
	BytesWritten uint64 `json:"bytesWritten"`
	// Errors counts append/sync/verify failures; lookups keep working when
	// it rises, falling back to recomputation.
	Errors uint64 `json:"errors"`
	// Expired is how many entries the reopening scan dropped for exceeding
	// the TTL (WithTTL); Vanished is how many it dropped because their
	// stored dataset location no longer exists (WithLocationCheck). Both
	// are eviction outcomes, not errors.
	Expired  int `json:"expired,omitempty"`
	Vanished int `json:"vanished,omitempty"`
}

// HitRate returns Hits over total lookups, or 0 when none happened.
func (s Reuse) HitRate() float64 { return rate(s.Hits, s.Misses) }

// Journal is a point-in-time snapshot of job-journal activity. Counters
// are cumulative since Open.
type Journal struct {
	// Submits / Transitions count records appended by kind.
	Submits     uint64 `json:"submits"`
	Transitions uint64 `json:"transitions"`
	// Recovered is how many incomplete jobs the reopening scan yielded.
	Recovered int `json:"recovered"`
	// Compacted is how many stale records (of already-terminal jobs)
	// compaction has dropped: the reopening one plus every live one since.
	Compacted int `json:"compacted"`
	// Compactions counts live (threshold-triggered) compactions performed
	// since Open; the reopening compaction is not included.
	Compactions uint64 `json:"compactions,omitempty"`
	// TornBytes is how many trailing bytes the reopening scan discarded as
	// a torn or corrupt tail.
	TornBytes int64 `json:"tornBytes"`
	// BytesWritten counts record bytes appended (headers included).
	BytesWritten uint64 `json:"bytesWritten"`
	// Errors counts failed appends and compactions; the service keeps
	// running when it rises. A failed append is not journaled (framelog
	// truncates it away), so that one submission or transition is not
	// recoverable — but every later append that succeeds is.
	Errors uint64 `json:"errors"`
}

// Queue describes the job queue: Workers/Depth are the worker pool and the
// admission bound; Queued/Busy are point-in-time occupancy.
type Queue struct {
	Workers int `json:"workers"`
	Depth   int `json:"depth"`
	Queued  int `json:"queued"`
	Busy    int `json:"busy"`
}

// Cluster snapshots a coordinator's view of the cluster: membership, live
// leases, the dispatch/failover counters, and the cluster-wide
// single-flight totals summed from worker heartbeats.
type Cluster struct {
	// Workers is total registered; LiveWorkers those holding a lease.
	Workers     int `json:"workers"`
	LiveWorkers int `json:"liveWorkers"`
	// Leases is the number of in-flight dispatches on live workers.
	Leases int `json:"leases"`
	// Dispatches counts first dispatch attempts; Redispatches counts
	// attempts re-routed off a dead or expired worker; Failovers counts
	// jobs that found no live worker and ran on the coordinator itself. A
	// key-first probe that a worker refuses with "plan required" ran
	// nothing and is not counted; the full document that follows it is.
	Dispatches   uint64 `json:"dispatches"`
	Redispatches uint64 `json:"redispatches"`
	Failovers    uint64 `json:"failovers"`
	// SingleFlightHits sums the workers' last-reported cross-replica
	// single-flight hits (optimizations answered by another replica's
	// concurrent computation); Computes sums the optimizations workers
	// actually ran.
	SingleFlightHits uint64 `json:"singleFlightHits"`
	Computes         uint64 `json:"computes"`
}

// rate is hits over hits+misses in [0, 1], zero when nothing was looked up.
func rate(hits, misses uint64) float64 {
	if t := hits + misses; t > 0 {
		return float64(hits) / float64(t)
	}
	return 0
}
