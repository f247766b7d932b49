package stubby

import (
	"errors"
	"time"

	"github.com/stubby-mr/stubby/internal/catalog"
)

// ReuseCatalog is a durable catalog of materialized sub-plan results (the
// ReStore idea): every dataset a Run materializes is published under its
// producing sub-DAG's rooted fingerprint, and later optimizations — of the
// same workflow or a different one sharing a sub-DAG — can replace the
// matched sub-DAG with a scan of the stored result when the What-if
// estimate says scanning beats recomputing. See internal/catalog for the
// on-disk format and durability guarantees.
type ReuseCatalog = catalog.Store

// ReuseCatalogStats snapshots a ReuseCatalog's counters; see
// Session.ReuseCatalogStats and ReuseReportEvent.
type ReuseCatalogStats = catalog.Stats

// ReuseCatalogOption configures NewReuseCatalog's open-time behavior.
type ReuseCatalogOption = catalog.Option

// WithCatalogTTL evicts catalog entries older than ttl when the catalog is
// (re)opened: expired entries are dropped by the compaction pass and
// counted in ReuseCatalogStats.Expired, never surfaced as errors. Entries
// written before timestamps existed have unknown age and are
// conservatively treated as expired.
func WithCatalogTTL(ttl time.Duration) ReuseCatalogOption {
	return catalog.WithTTL(ttl)
}

// NewReuseCatalog opens (creating if needed) a reuse catalog rooted at
// dir. Reopening recovers crash-safely — torn record tails are truncated,
// stale duplicates are compacted away (along with entries evicted by
// WithCatalogTTL), and every surviving entry
// stays CRC-verified on read. One live writer per directory is enforced
// with a lock file; close the catalog when done.
func NewReuseCatalog(dir string, opts ...ReuseCatalogOption) (*ReuseCatalog, error) {
	return catalog.Open(dir, opts...)
}

// WithReuseCatalog attaches a sub-plan reuse catalog to the session:
// Run publishes every materialized intermediate dataset under its
// producing sub-DAG's fingerprint, and Optimize/Submit add a pre-pass
// that replaces catalog-matched sub-DAGs with scans of the stored
// results — but only when the What-if estimate says the scan is strictly
// cheaper. The rewritten plan is searched too, and kept only when it ends
// strictly cheaper than the plan searched without the catalog, so reuse
// can never worsen a plan. Result.ReusedSubplans counts the replacements
// in the returned plan. A session whose catalog matches the workflow
// bypasses its plan store, and a plan that scans catalog results is never
// published to it. The caller retains ownership: Close the catalog after
// the session is done with it.
//
// Reuse preserves results exactly: a sub-DAG is matched only when its
// rooted fingerprint — job programs, configurations, profiles, and the
// full content identity of every base input — is identical to the run
// that produced the stored result.
func WithReuseCatalog(c *ReuseCatalog) SessionOption {
	return func(s *Session) error {
		if c == nil {
			return errors.New("stubby: WithReuseCatalog(nil)")
		}
		s.reuseCatalog = c
		return nil
	}
}

// ReuseCatalog returns the catalog attached via WithReuseCatalog, or nil.
func (s *Session) ReuseCatalog() *ReuseCatalog { return s.reuseCatalog }

// ReuseCatalogStats snapshots the attached catalog's counters. ok is false
// when the session has no reuse catalog.
func (s *Session) ReuseCatalogStats() (stats ReuseCatalogStats, ok bool) {
	if s.reuseCatalog == nil {
		return ReuseCatalogStats{}, false
	}
	return s.reuseCatalog.Stats(), true
}
