package stubby_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/trans"
	"github.com/stubby-mr/stubby/internal/wf"
)

// storeSession builds a session over wl's cluster with ps attached and a
// small search budget (the store must be byte-transparent at any budget).
func storeSession(t *testing.T, wl *stubby.Workload, ps *stubby.PlanStore) *stubby.Session {
	t.Helper()
	sess, err := stubby.NewSession(
		stubby.WithCluster(wl.Cluster),
		stubby.WithSeed(1),
		stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 12}),
		stubby.WithPlanStore(ps),
	)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestPlanStoreRestartHit is the acceptance drill for the persistent plan
// store: optimize all eight paper workloads against one store, "restart"
// (close the store and every session, reopen the directory cold), and
// re-optimize. Every repeat must come back from the store — byte-identical
// plan, equal cost, FromStore set, zero What-if activity, zero optimizer
// units run.
func TestPlanStoreRestartHit(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	store, err := stubby.NewPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := make(map[string][]byte)
	costs := make(map[string]float64)
	for _, abbr := range stubby.Workloads() {
		wl := profiledWorkload(t, abbr, 0.1, 1)
		res, err := storeSession(t, wl, store).Optimize(ctx, wl.Workflow)
		if err != nil {
			t.Fatalf("%s: %v", abbr, err)
		}
		if res.FromStore {
			t.Fatalf("%s: first optimization claims to be from the store", abbr)
		}
		cold[abbr] = exportBytes(t, res.Plan)
		costs[abbr] = res.EstimatedCost
	}
	if st := store.Stats(); st.Computes != uint64(len(cold)) {
		t.Fatalf("cold computes = %d, want %d", st.Computes, len(cold))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// The restart: a fresh store instance over the same directory, fresh
	// sessions, freshly rebuilt (and re-profiled) workloads.
	store2, err := stubby.NewPlanStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	for _, abbr := range stubby.Workloads() {
		wl := profiledWorkload(t, abbr, 0.1, 1)
		res, err := storeSession(t, wl, store2).Optimize(ctx, wl.Workflow)
		if err != nil {
			t.Fatalf("%s after restart: %v", abbr, err)
		}
		if !res.FromStore {
			t.Errorf("%s after restart: not served from the store", abbr)
		}
		if res.WhatIfComputed != 0 || res.WhatIfCalls != 0 || res.FlowCards != 0 {
			t.Errorf("%s after restart: What-if activity (%d calls, %d computed, %d cards), want none",
				abbr, res.WhatIfCalls, res.WhatIfComputed, res.FlowCards)
		}
		if len(res.Units) != 0 {
			t.Errorf("%s after restart: %d optimizer units ran, want 0", abbr, len(res.Units))
		}
		if got := exportBytes(t, res.Plan); !bytes.Equal(got, cold[abbr]) {
			t.Errorf("%s after restart: plan is not byte-identical", abbr)
		}
		if res.EstimatedCost != costs[abbr] {
			t.Errorf("%s after restart: cost %v, want %v", abbr, res.EstimatedCost, costs[abbr])
		}
	}
	if st := store2.Stats(); st.Computes != 0 {
		t.Errorf("restart computes = %d, want 0", st.Computes)
	}
}

// TestPlanStoreSubmitHitEvent checks the service path: the second
// submission of a workflow finishes immediately from the store, its event
// stream carries a storeReport with Hit set, and the full lifecycle
// (Queued→Running→Done) still plays out.
func TestPlanStoreSubmitHitEvent(t *testing.T) {
	ctx := context.Background()
	store, err := stubby.NewPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	wl := profiledWorkload(t, "BA", 0.1, 1)
	sess := storeSession(t, wl, store)
	defer sess.Close(ctx)

	h1, err := sess.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := h1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	h2, err := sess.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := h2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.FromStore || res2.WhatIfComputed != 0 {
		t.Fatalf("repeat submission: FromStore=%v WhatIfComputed=%d, want store hit with no estimation",
			res2.FromStore, res2.WhatIfComputed)
	}
	if !bytes.Equal(exportBytes(t, res2.Plan), exportBytes(t, res1.Plan)) {
		t.Fatal("repeat submission returned a different plan")
	}

	var hit bool
	var states []stubby.JobState
	for ev := range h2.Events(ctx) {
		switch e := ev.(type) {
		case stubby.PlanStoreEvent:
			if e.Hit {
				hit = true
			}
		case stubby.StateChangedEvent:
			states = append(states, e.State)
		}
	}
	if !hit {
		t.Fatal("repeat submission published no storeReport hit event")
	}
	want := []stubby.JobState{stubby.StateQueued, stubby.StateRunning, stubby.StateDone}
	if len(states) != len(want) {
		t.Fatalf("lifecycle = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("lifecycle = %v, want %v", states, want)
		}
	}
	if st := store.Stats(); st.Computes != 1 {
		t.Fatalf("computes = %d, want 1", st.Computes)
	}
}

// TestPlanStoreSubmitSingleFlight floods a cold store with concurrent
// submissions of one workflow: exactly one optimization may run, and every
// submission must return the identical plan.
func TestPlanStoreSubmitSingleFlight(t *testing.T) {
	ctx := context.Background()
	store, err := stubby.NewPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	wl := profiledWorkload(t, "BA", 0.1, 1)
	sess := storeSession(t, wl, store)
	defer sess.Close(ctx)

	const callers = 8
	var wg sync.WaitGroup
	plans := make([][]byte, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		h, err := sess.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, h *stubby.OptimizeHandle) {
			defer wg.Done()
			res, err := h.Wait(ctx)
			if err != nil {
				errs[i] = err
				return
			}
			plans[i] = exportBytes(t, res.Plan)
		}(i, h)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	for i := 1; i < callers; i++ {
		if !bytes.Equal(plans[i], plans[0]) {
			t.Fatalf("submission %d returned a different plan", i)
		}
	}
	if st := store.Stats(); st.Computes != 1 {
		t.Fatalf("computes = %d for %d concurrent submissions, want 1", st.Computes, callers)
	}
}

// TestTwoReplicaSharedStore is the multi-replica smoke: two independent
// server instances (own sessions, own store handles) share one store
// directory. Every paper workload submitted to replica A and then to
// replica B must produce byte-identical plans, with B answering from the
// store — total optimizations stay at 8, half the submission count.
func TestTwoReplicaSharedStore(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	type replica struct {
		store  *stubby.PlanStore
		client *stubby.Client
	}
	newReplica := func(cluster *stubby.Cluster) replica {
		t.Helper()
		store, err := stubby.NewPlanStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		sess, err := stubby.NewSession(
			stubby.WithCluster(cluster),
			stubby.WithSeed(1),
			stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 12}),
			stubby.WithEstimateCache(stubby.NewEstimateCache(0)),
			stubby.WithPlanStore(store),
		)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(stubby.NewServer(sess))
		t.Cleanup(hs.Close)
		client, err := stubby.NewClient(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		return replica{store: store, client: client}
	}

	// Both replicas serve the paper's shared evaluation cluster; requests
	// carry their workload's cluster explicitly, as remote submitters do.
	first := profiledWorkload(t, "BA", 0.1, 1)
	a := newReplica(first.Cluster)
	b := newReplica(first.Cluster)

	submit := func(r replica, wl *stubby.Workload) *stubby.Result {
		t.Helper()
		job, err := r.client.Submit(ctx, stubby.OptimizeRequest{
			Workflow: wl.Workflow,
			Cluster:  wl.Cluster,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	submissions := 0
	for _, abbr := range stubby.Workloads() {
		wl := profiledWorkload(t, abbr, 0.1, 1)
		resA := submit(a, wl)
		resB := submit(b, wl)
		submissions += 2
		if !bytes.Equal(exportBytes(t, resA.Plan), exportBytes(t, resB.Plan)) {
			t.Errorf("%s: replicas returned different plans", abbr)
		}
		if resB.WhatIfComputed != 0 {
			t.Errorf("%s: replica B computed %d estimates, want a store hit", abbr, resB.WhatIfComputed)
		}
	}

	statsA, err := a.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	statsB, err := b.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if statsA.PlanStore == nil || statsB.PlanStore == nil {
		t.Fatal("statsz omitted plan-store counters")
	}
	total := statsA.PlanStore.Computes + statsB.PlanStore.Computes
	if want := uint64(len(stubby.Workloads())); total != want {
		t.Errorf("total optimizations = %d, want %d", total, want)
	}
	if total >= uint64(submissions) {
		t.Errorf("total optimizations %d not less than submissions %d", total, submissions)
	}
	if statsB.PlanStore.Hits == 0 {
		t.Error("replica B reports zero store hits")
	}
	if statsA.Workers <= 0 || statsA.QueueDepth <= 0 || statsA.Status != "ok" {
		t.Errorf("statsz queue shape implausible: %+v", statsA)
	}
	if statsA.EstimateCache == nil {
		t.Error("statsz omitted estimate-cache counters")
	}
}

// TestPlanStoreKeySeparatesSearchOptions: a session whose search options
// change the plan (here the RRS budget) must not serve its plans to a
// default session sharing the store. The default session's answer through
// the shared store equals its answer without any store.
func TestPlanStoreKeySeparatesSearchOptions(t *testing.T) {
	ctx := context.Background()
	wl := profiledWorkload(t, "IR", 0.1, 1)
	store, err := stubby.NewPlanStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	optimize := func(opts ...stubby.SessionOption) *stubby.Result {
		t.Helper()
		sess, err := stubby.NewSession(append([]stubby.SessionOption{stubby.WithCluster(wl.Cluster), stubby.WithSeed(1)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Optimize(ctx, wl.Workflow)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	optimize(stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 40}), stubby.WithPlanStore(store))
	shared := optimize(stubby.WithPlanStore(store))
	alone := optimize()
	if shared.FromStore {
		t.Fatal("default session was served the RRSEvals=40 session's plan")
	}
	if !bytes.Equal(exportBytes(t, shared.Plan), exportBytes(t, alone.Plan)) || shared.EstimatedCost != alone.EstimatedCost {
		t.Fatalf("default session through the shared store: cost %.1f, want the storeless %.1f and its plan",
			shared.EstimatedCost, alone.EstimatedCost)
	}
}

// TestPlanStoreWithholdsCatalogPlans: a session with a reuse catalog that
// matches the workflow plans a scan of the stored results, and that plan
// must not reach a plan store it shares with a catalog-less session — whose
// own search knows nothing of the catalog's datasets. The catalog-less
// session must compute and return the plan it gets without any store, and
// the catalog session must not be served that plan in place of its own.
func TestPlanStoreWithholdsCatalogPlans(t *testing.T) {
	ctx := context.Background()
	wl := profiledWorkload(t, "IR", 0.1, 1)
	newStore := func() *stubby.PlanStore {
		t.Helper()
		store, err := stubby.NewPlanStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		return store
	}
	cat, err := stubby.NewReuseCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	session := func(opts ...stubby.SessionOption) *stubby.Session {
		t.Helper()
		sess, err := stubby.NewSession(append([]stubby.SessionOption{stubby.WithCluster(wl.Cluster), stubby.WithSeed(1)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	optimize := func(sess *stubby.Session) *stubby.Result {
		t.Helper()
		res, err := sess.Optimize(ctx, wl.Workflow)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wantReuse := func(who string, res *stubby.Result) {
		t.Helper()
		if res.ReusedSubplans == 0 || res.FromStore {
			t.Fatalf("%s: %d reused sub-plans, from store %v; want a fresh plan that reuses",
				who, res.ReusedSubplans, res.FromStore)
		}
	}

	store := newStore()
	withCat := session(stubby.WithReuseCatalog(cat), stubby.WithPlanStore(store))
	if _, err := withCat.Run(ctx, wl.DFS.Clone(), wl.Workflow); err != nil {
		t.Fatal(err)
	}
	wantReuse("catalog session", optimize(withCat))
	shared := optimize(session(stubby.WithPlanStore(store)))
	alone := optimize(session())
	if shared.FromStore || shared.ReusedSubplans != 0 {
		t.Fatalf("catalog-less session was served the catalog session's plan (%d jobs, %d reused)",
			len(shared.Plan.Jobs), shared.ReusedSubplans)
	}
	if !bytes.Equal(exportBytes(t, shared.Plan), exportBytes(t, alone.Plan)) || shared.EstimatedCost != alone.EstimatedCost {
		t.Fatalf("catalog-less session through the shared store: cost %.1f, want the storeless %.1f and its plan",
			shared.EstimatedCost, alone.EstimatedCost)
	}
	// The store now holds the catalog-less plan; the catalog session must
	// still search with its catalog rather than be served that plan.
	wantReuse("catalog session after the store filled", optimize(withCat))

	// A match published after the session checked its catalog and before
	// its search: the plan that reuses it is served, never stored.
	late := &lateCatalog{ReuseCatalog: cat}
	fresh := newStore()
	wantReuse("late-match session", optimize(session(stubby.WithPlanStore(fresh), stubby.WithOptimizerOptions(
		stubby.Options{ReuseCatalog: late, Progress: func(stubby.Event) { late.visible.Store(true) }}))))
	if res := optimize(session(stubby.WithPlanStore(fresh))); res.FromStore || res.ReusedSubplans != 0 {
		t.Fatalf("catalog-less session was served a late-match plan (%d jobs, %d reused)",
			len(res.Plan.Jobs), res.ReusedSubplans)
	}
}

// lateCatalog hides a catalog's entries until visible is set, which the
// test does when the search reports its first event: they read as
// published after the session's store check and before its pre-pass.
type lateCatalog struct {
	*stubby.ReuseCatalog
	visible atomic.Bool
}

func (c *lateCatalog) Lookup(fp wf.Fingerprint) (trans.StoredResult, bool) {
	if !c.visible.Load() {
		return trans.StoredResult{}, false
	}
	return c.ReuseCatalog.Lookup(fp)
}

// TestOptionsKeyClassified holds every field of stubby.Options to one of two
// classes: digested (a non-zero value changes the plan-store key's search
// digest) or unkeyed (named, with its reason, in the list the key's doc
// points to). A new option that is neither could key two different plans
// alike, so an unclassified field fails.
func TestOptionsKeyClassified(t *testing.T) {
	unkeyed := stubby.UnkeyedOptions
	typ := reflect.TypeOf(stubby.Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if reason, ok := unkeyed[f.Name]; ok {
			if reason == "" {
				t.Errorf("Options.%s is unkeyed without a reason", f.Name)
			}
			continue
		}
		var o stubby.Options
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch k := f.Type.Kind(); {
		case k == reflect.Bool:
			v.SetBool(true)
		case k >= reflect.Int && k <= reflect.Int64:
			v.SetInt(1)
		case f.Type == reflect.TypeOf([]stubby.Transformation(nil)):
			v.Set(reflect.ValueOf([]stubby.Transformation{dropSinkCopy{}}))
		default:
			t.Errorf("Options.%s: no non-zero value to try; digest it or name it unkeyed with its reason", f.Name)
			continue
		}
		if stubby.SearchDigest(o) == stubby.SearchDigest(stubby.Options{}) {
			t.Errorf("Options.%s is unclassified: setting it leaves the plan-store key's digest unchanged, "+
				"and it is not named unkeyed", f.Name)
		}
	}
	for name := range unkeyed {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("unkeyed option %s is not a field of Options", name)
		}
	}
}
