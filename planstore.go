package stubby

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"github.com/stubby-mr/stubby/internal/optimizer"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/planstore"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/whatif"
)

// PlanStore is a durable, content-addressed store of optimized plans. It
// persists every optimization a session performs as a versioned planio
// result document, keyed by the canonical workflow fingerprint plus the
// cluster, planner, seed and search options the search depended on, so a
// repeat submission — from this process, a restarted one, or another
// replica sharing the directory — returns the byte-identical plan without
// running the optimizer. See internal/planstore for the on-disk format and
// durability guarantees.
type PlanStore = planstore.Store

// PlanStoreStats snapshots a PlanStore's counters; see
// Session.PlanStoreStats and PlanStoreEvent.
type PlanStoreStats = planstore.Stats

// NewPlanStore opens (creating if needed) a plan store rooted at dir.
// Reopening a directory recovers crash-safely: torn record tails are
// truncated and every surviving plan remains CRC- and
// fingerprint-verified on read. Any number of stores — across processes —
// may share one directory; close the store when done to publish its final
// index snapshot.
func NewPlanStore(dir string) (*PlanStore, error) {
	ps, err := planstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// WithPlanStore attaches a persistent plan store to the session: Optimize
// and Submit consult it before searching, concurrent submissions of the
// same workflow collapse into one optimization (single-flight), and every
// fresh result is durably published for later sessions and other replicas.
// The store is transparent — a hit returns the byte-identical plan and
// estimated cost the original search produced, with Result.FromStore set
// and zero What-if activity. The caller retains ownership: Close the store
// after the session is done with it.
func WithPlanStore(ps *PlanStore) SessionOption {
	return func(s *Session) error {
		if ps == nil {
			return errors.New("stubby: WithPlanStore(nil)")
		}
		s.planStore = ps
		return nil
	}
}

// PlanStore returns the store attached via WithPlanStore, or nil.
func (s *Session) PlanStore() *PlanStore { return s.planStore }

// PlanStoreStats snapshots the attached store's counters. ok is false when
// the session has no plan store.
func (s *Session) PlanStoreStats() (stats PlanStoreStats, ok bool) {
	if s.planStore == nil {
		return PlanStoreStats{}, false
	}
	return s.planStore.Stats(), true
}

// planKey builds the store key of one optimization from the submitted
// workflow's fingerprint: everything the search outcome depends on. The
// search options set with WithOptimizerOptions enter as one digest
// (searchDigest), 0 for the defaults; unkeyedOptions names their other
// fields, each with the reason the key can leave it out. The key holds
// no robustness setting and needs none: WithRobustness attaches a report to
// the plan served, and no planner sees the fault model, so replicas that
// differ only in it write the same plan under one key. The fingerprint is
// canonical (insensitive to names and job-ID renaming), so resubmitting a
// renamed copy of a known workflow still hits. Two requests with equal keys
// produce byte-identical plans, which also makes the key the in-flight
// identity a journaled server deduplicates submissions by (the idempotency
// that makes client-side submit retries safe).
func (s *Session) planKey(fp wf.Fingerprint, planner string, seed int64) planstore.Key {
	return planstore.Key{
		Plan:    fp,
		Cluster: whatif.ClusterFingerprint(s.cluster),
		Planner: planner,
		Seed:    seed,
		Search:  s.search,
	}
}

// unkeyedOptions names the Options fields searchDigest leaves out, each
// with the reason the plan a store serves does not depend on it. Every
// other field must change the digest; a test holds each field to one of
// the two.
var unkeyedOptions = map[string]string{
	"Seed":               "a key field of its own (planstore.Key.Seed)",
	"KeepSubplans":       "keeps the search trace, not the plan",
	"Progress":           "reports the search, never steers it",
	"Parallelism":        "plans are identical at any parallelism",
	"EstimateCache":      "caching is transparent to plans and costs",
	"DisableIncremental": "the reference path finds the same plans",
	"ReuseCatalog": "a session whose catalog matches the workflow bypasses the store (storeFor), " +
		"and a plan that scans catalog results is never published",
}

// searchDigest digests the fields of o that change the plan a search
// returns: the budgets, the transformation table (groups, partition row,
// custom rows by name, in order) and the ablation switches. It is 0 when
// all of them are zero, so default-option sessions keep their keys.
func searchDigest(o Options) uint64 {
	if o.Groups == 0 && o.RRSEvals == 0 && o.MaxSubplans == 0 && !o.DisablePartition &&
		!o.DisableConfigSearch && o.ConfigSearch == 0 && !o.HorizontalFirst && !o.GlobalUnit && len(o.Custom) == 0 {
		return 0
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %t %t %d %t %t", o.Groups, o.RRSEvals, o.MaxSubplans, o.DisablePartition,
		o.DisableConfigSearch, o.ConfigSearch, o.HorizontalFirst, o.GlobalUnit)
	for _, c := range o.Custom {
		fmt.Fprintf(h, " %q", c.Name())
	}
	return h.Sum64()
}

// encodeStoredResult renders an optimization result as the planio wire
// document the store persists, stamped with the plan's fingerprint so
// every later read is integrity-checked end to end. The search's own
// counters — duration, What-if activity, flow cards — are left zero: the
// stored bytes are exactly the document a hit serves (a hit did no
// search), and they depend on the key alone, so two replicas that compute
// the same key publish identical records. Documents written by earlier
// builds carry the original search's counters; served as they are, a hit on
// one reports those, which is harmless.
func encodeStoredResult(res *Result) ([]byte, error) {
	return planio.EncodeResult(&planio.Result{
		Plan:           res.Plan,
		EstimatedCost:  res.EstimatedCost,
		Fingerprint:    wf.FingerprintWorkflow(res.Plan).String(),
		ReusedSubplans: res.ReusedSubplans,
	})
}

// decodeStoredResult reconstructs a stored plan, binding its stage
// functions through the submitted workflow's own function library (the
// optimizer only rearranges the submitter's stages, so the input workflow
// carries every binding the optimized plan references). The decode
// re-verifies the stamped fingerprint; a document that fails to decode or
// verify is treated as a miss by the callers, never returned.
func decodeStoredResult(doc []byte, w *Workflow) (*Result, error) {
	reg := planio.NewRegistry()
	reg.RegisterWorkflow(w)
	wres, err := planio.DecodeResultBound(doc, reg)
	if err != nil {
		return nil, err
	}
	return &Result{Plan: wres.Plan, EstimatedCost: wres.EstimatedCost, FromStore: true,
		ReusedSubplans: wres.ReusedSubplans}, nil
}

// storeFor returns the plan store an optimization of w may read and
// write: none when the session has none or when its reuse catalog matches
// a sub-plan of w (optimizer.ReuseRewrites, the pre-pass's own rule), as
// that plan may scan catalog datasets other sessions sharing the store
// lack. A key-first probe (w nil) cannot be checked; it reads the store,
// which holds no plan that scans catalog results. A ReuseCatalog is peeked
// at, uncounted: the search that follows counts its lookups as before.
func (s *Session) storeFor(w *Workflow) *PlanStore {
	src := s.baseOpts.ReuseCatalog
	if s.planStore == nil || src == nil || w == nil {
		return s.planStore
	}
	lookup := src.Lookup
	if c, ok := src.(*ReuseCatalog); ok {
		lookup = c.Peek
	}
	if len(optimizer.ReuseRewrites(w, wf.NewHasher(), lookup)) > 0 {
		return nil
	}
	return s.planStore
}

// errReusedPlan refuses to publish a store computation whose plan scans
// catalog results. storeFor found no catalog match, so this happens only
// when a match was published between that check and the search.
var errReusedPlan = errors.New("stubby: plan reuses catalog results and is not stored")

// optimizeNamed dispatches one optimization of w — key.Planner under
// key.Seed — fronted by the plan store when storeFor gives one (only then
// is the rest of key, w's planKey, read): a stored plan is returned without
// searching, and a miss runs the search under a per-key single-flight —
// in-process and, through the store's claim files, across every replica
// sharing the store directory — so concurrent submissions of the same
// workflow cost one optimization cluster-wide. A computed plan that scans
// catalog results is returned but never published (errReusedPlan).
func (s *Session) optimizeNamed(ctx context.Context, w *Workflow, key planstore.Key, sink func(Event)) (*Result, error) {
	name, seed := key.Planner, key.Seed
	ps := s.storeFor(w)
	if ps == nil {
		return s.optimizeDirect(ctx, w, name, seed, sink)
	}
	for {
		var computed *Result
		doc, _, err := ps.GetOrCompute(ctx, key, func() ([]byte, error) {
			res, rerr := s.optimizeDirect(ctx, w, name, seed, sink)
			if rerr != nil {
				return nil, rerr
			}
			computed = res
			if res.ReusedSubplans > 0 {
				return nil, errReusedPlan
			}
			return encodeStoredResult(res)
		})
		if computed != nil {
			// This call ran the search. Even if encoding for persistence
			// failed, the result itself is good — never waste a completed
			// optimization on a storage problem.
			return computed, nil
		}
		if err != nil {
			// A waiter can inherit another submitter's cancellation, or a
			// plan not fit to store, through the shared flight. If our own
			// context is still live, the work is still wanted — retry (and
			// likely become the owner).
			if ctx.Err() == nil && (errors.Is(err, context.Canceled) ||
				errors.Is(err, context.DeadlineExceeded) || errors.Is(err, errReusedPlan)) {
				continue
			}
			return nil, err
		}
		// A hit: a non-hit, non-error return always set computed.
		if res, derr := decodeStoredResult(doc, w); derr == nil {
			return res, nil
		}
		// An undecodable stored document (e.g. a foreign stage name) must
		// not fail the submission; optimize directly instead.
		return s.optimizeDirect(ctx, w, name, seed, sink)
	}
}
