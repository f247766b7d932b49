package whatif

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// The incremental estimator's contract is bitwise equivalence: for any plan,
// any declared changed-job set, and any sequence of configuration mutations
// to those jobs, Prepared.Estimate must return exactly the estimate the
// monolithic Estimator.Estimate returns — same Makespan bits, same per-job
// and per-dataset fields. These tests fuzz that contract across the eight
// paper workloads × randomized changed sets × randomized configuration
// points, mirroring how the optimizer's RRS objective drives it.

var (
	equivOnce sync.Once
	equivWls  map[string]*workloads.Workload
	equivErr  error
)

// equivWorkloads builds and profiles every paper workload once (profiling
// dominates runtime; every test in this file starts from the same plans).
func equivWorkloads(t *testing.T) map[string]*workloads.Workload {
	t.Helper()
	equivOnce.Do(func() {
		equivWls = make(map[string]*workloads.Workload)
		for _, abbr := range workloads.Abbrs() {
			wl, err := workloads.Build(abbr, workloads.Options{SizeFactor: 0.1, Seed: 1})
			if err != nil {
				equivErr = err
				return
			}
			if err := profile.NewProfiler(wl.Cluster, 0.5, 18).Annotate(wl.Workflow, wl.DFS); err != nil {
				equivErr = err
				return
			}
			equivWls[abbr] = wl
		}
	})
	if equivErr != nil {
		t.Fatal(equivErr)
	}
	return equivWls
}

// randomizeConfig draws a configuration the way the optimizer's search
// space does (internal/optimizer.configSpace ranges).
func randomizeConfig(rng *rand.Rand, c *wf.Config) {
	c.NumReduceTasks = 1 + rng.Intn(300)
	c.SplitSizeMB = 8 + rng.Intn(505)
	c.SortBufferMB = 16 + rng.Intn(497)
	c.IOSortFactor = 5 + rng.Intn(96)
	c.UseCombiner = rng.Intn(2) == 1
	c.CompressMapOutput = rng.Intn(2) == 1
	c.CompressOutput = rng.Intn(2) == 1
}

// requireEqualEstimates asserts exact (bitwise, == on every float) equality.
func requireEqualEstimates(t *testing.T, want, got *Estimate, ctx string) {
	t.Helper()
	if want.Fallback != got.Fallback {
		t.Fatalf("%s: Fallback %v vs %v", ctx, want.Fallback, got.Fallback)
	}
	if want.Makespan != got.Makespan {
		t.Fatalf("%s: Makespan %.17g vs %.17g", ctx, want.Makespan, got.Makespan)
	}
	if len(want.Jobs) != len(got.Jobs) {
		t.Fatalf("%s: %d jobs vs %d", ctx, len(want.Jobs), len(got.Jobs))
	}
	for id, wj := range want.Jobs {
		gj := got.Jobs[id]
		if gj == nil {
			t.Fatalf("%s: job %s missing", ctx, id)
		}
		if *wj != *gj {
			t.Fatalf("%s: job %s diverged:\n  mono %+v\n  incr %+v", ctx, id, *wj, *gj)
		}
	}
	if len(want.Datasets) != len(got.Datasets) {
		t.Fatalf("%s: %d datasets vs %d", ctx, len(want.Datasets), len(got.Datasets))
	}
	for id, wd := range want.Datasets {
		gd := got.Datasets[id]
		if gd == nil {
			t.Fatalf("%s: dataset %s missing", ctx, id)
		}
		if !datasetEstimateEqual(*wd, *gd) {
			t.Fatalf("%s: dataset %s diverged:\n  mono %+v\n  incr %+v", ctx, id, *wd, *gd)
		}
	}
}

// TestPreparedMatchesMonolithic is the core equivalence fuzz: for every
// paper workload, random changed-job subsets × random configuration points,
// delta estimates must be bitwise-identical to full monolithic estimates
// computed by an independent estimator.
func TestPreparedMatchesMonolithic(t *testing.T) {
	wls := equivWorkloads(t)
	rng := rand.New(rand.NewSource(7))
	for _, abbr := range workloads.Abbrs() {
		wl := wls[abbr]
		t.Run(abbr, func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				plan := wl.Workflow.Clone()
				var ids []string
				for _, j := range plan.Jobs {
					ids = append(ids, j.ID)
				}
				// Random non-empty changed subset.
				rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
				changed := ids[:1+rng.Intn(len(ids))]
				inc := New(wl.Cluster)
				mono := New(wl.Cluster)
				prep, err := inc.Prepare(plan, changed)
				if err != nil {
					t.Fatal(err)
				}
				for sample := 0; sample < 6; sample++ {
					for _, id := range changed {
						randomizeConfig(rng, &plan.Job(id).Config)
					}
					got, err := prep.Estimate()
					if err != nil {
						t.Fatal(err)
					}
					want, err := mono.Estimate(plan)
					if err != nil {
						t.Fatal(err)
					}
					requireEqualEstimates(t, want, got,
						abbr+" full")
					// The truncated probe path: every job and dataset it
					// reports must carry exactly the full estimate's values.
					probe, err := prep.EstimateChanged()
					if err != nil {
						t.Fatal(err)
					}
					if probe.Fallback != want.Fallback {
						t.Fatal("probe fallback diverged")
					}
					for id, pj := range probe.Jobs {
						if *pj != *want.Jobs[id] {
							t.Fatalf("%s: probe job %s diverged:\n  mono %+v\n  probe %+v",
								abbr, id, *want.Jobs[id], *pj)
						}
					}
					for id, pd := range probe.Datasets {
						if !datasetEstimateEqual(*pd, *want.Datasets[id]) {
							t.Fatalf("%s: probe dataset %s diverged", abbr, id)
						}
					}
					for _, id := range changed {
						if probe.Jobs[id] == nil {
							t.Fatalf("%s: probe estimate missing changed job %s", abbr, id)
						}
					}
				}
			}
		})
	}
}

// TestPreparedNoChangedJobs: an empty changed set makes every estimate a
// pure replay of the prefix — still bitwise-identical to the monolithic
// answer.
func TestPreparedNoChangedJobs(t *testing.T) {
	wl := equivWorkloads(t)["IR"]
	plan := wl.Workflow.Clone()
	prep, err := New(wl.Cluster).Prepare(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(wl.Cluster).Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := prep.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		requireEqualEstimates(t, want, got, "no-changed")
	}
}

// TestPreparedFallback: plans without full profiles fall back to #jobs
// costing through the incremental path exactly as through the monolithic
// one.
func TestPreparedFallback(t *testing.T) {
	wl := equivWorkloads(t)["SN"]
	plan := wl.Workflow.Clone()
	plan.Jobs[0].Profile = nil
	est := New(wl.Cluster)
	prep, err := est.Prepare(plan, []string{plan.Jobs[0].ID})
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(wl.Cluster).Estimate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Fallback {
		t.Fatal("fixture should fall back")
	}
	got, err := prep.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualEstimates(t, want, got, "fallback")
	probe, err := prep.EstimateChanged()
	if err != nil {
		t.Fatal(err)
	}
	requireEqualEstimates(t, want, probe, "fallback probe")
}

// TestPreparedCountsFlowCards: delta estimates must register as requests
// (not full computations) and reuse must show up as fewer flow cards than
// jobs × estimates.
func TestPreparedCountsFlowCards(t *testing.T) {
	wl := equivWorkloads(t)["BR"]
	plan := wl.Workflow.Clone()
	est := New(wl.Cluster)
	changed := []string{plan.Jobs[len(plan.Jobs)-1].ID}
	prep, err := est.Prepare(plan, changed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const samples = 20
	for i := 0; i < samples; i++ {
		randomizeConfig(rng, &plan.Job(changed[0]).Config)
		if _, err := prep.Estimate(); err != nil {
			t.Fatal(err)
		}
	}
	c := est.Counts()
	if c.Computed != 0 {
		t.Errorf("delta estimates counted as full computations: %d", c.Computed)
	}
	if c.Requests != samples {
		t.Errorf("requests = %d, want %d", c.Requests, samples)
	}
	full := uint64(samples * len(plan.Jobs))
	if c.FlowCards >= full {
		t.Errorf("flow cards %d not below monolithic bound %d", c.FlowCards, full)
	}
	if c.FlowCards == 0 {
		t.Error("flow cards never counted")
	}
}

// TestEstimateChangedAllocs pins the allocation count of the configuration
// search's probe — a lib-search job issues 15.6 k of them, most at a
// configuration RRS's exploit phase has visited before. When only the last
// job changes, every card comes from the memo, every estimate entry is
// overwritten in place and the slot pools reuse their own scratch: the probe
// allocates nothing. When the first job changes too, its output estimates
// alternate, so the unchanged jobs downstream of it find their one card
// stale and recompute flow into it in place, in the estimator's scratch:
// the four allocations left are the recomputed output layouts' field-name
// lists (wf.DeriveGroupOutputLayout). Split points are shared with the
// partition spec, not copied.
func TestEstimateChangedAllocs(t *testing.T) {
	wl := equivWorkloads(t)["BR"]
	for _, tc := range []struct {
		name      string
		withFirst bool
		want      float64
	}{
		{"last job changes", false, 0},
		{"first and last job change", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := wl.Workflow.Clone()
			order, err := plan.TopoSort()
			if err != nil {
				t.Fatal(err)
			}
			changed := []*wf.Job{order[len(order)-1]}
			if tc.withFirst {
				changed = append(changed, order[0])
			}
			var ids []string
			for _, j := range changed {
				ids = append(ids, j.ID)
			}
			prep, err := New(wl.Cluster).Prepare(plan, ids)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			points := make([][]wf.Config, 2)
			for i := range points {
				for _, j := range changed {
					c := j.Config
					randomizeConfig(rng, &c)
					points[i] = append(points[i], c)
				}
			}
			n := 0
			probe := func() {
				for k, j := range changed {
					j.Config = points[n%2][k]
				}
				n++
				if _, err := prep.EstimateChanged(); err != nil {
					t.Fatal(err)
				}
			}
			probe() // visit both points once: the pin is the recurring probe's count
			probe()
			if allocs := testing.AllocsPerRun(100, probe); allocs != tc.want {
				t.Fatalf("a recurring EstimateChanged probe allocates %.1f times, want %.0f", allocs, tc.want)
			}
		})
	}
}

// TestEstimateAllocs pins the allocation count of a memo-less full estimate
// of BR (221 when flowJob kept per-card maps): the estimate itself (its maps
// and entries), the topological order and each job's input and output
// lists, one card per job with its dataset storage, the walk's ready map and
// slot pools, and the output layouts' name lists. flowJob's per-input and
// per-tag working sets live in the estimator's scratch, so one that escapes
// to the heap again fails here.
func TestEstimateAllocs(t *testing.T) {
	wl := equivWorkloads(t)["BR"]
	e := New(wl.Cluster)
	estimate := func() {
		if _, err := e.Estimate(wl.Workflow); err != nil {
			t.Fatal(err)
		}
	}
	const want = 186
	if allocs := testing.AllocsPerRun(20, estimate); allocs != want {
		t.Fatalf("a memo-less Estimate of BR allocates %.1f times, want %d", allocs, want)
	}
}

// TestPreparedRecomputeInPlace drives the memo's in-place recompute: the
// first and last jobs are changeable, so both probe paths walk the whole
// plan, and the first job alternates between two configurations, so every
// unchanged job downstream of it finds its one card stale on each probe and
// recomputes flow into that card's storage. Every EstimateChanged and Estimate must
// stay bit-identical to a fresh estimator's Estimate of the same plan, and
// an Estimate result held across later probes must not change.
func TestPreparedRecomputeInPlace(t *testing.T) {
	wl := equivWorkloads(t)["BR"]
	plan := wl.Workflow.Clone()
	order, err := plan.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	first := order[0]
	est := New(wl.Cluster)
	prep, err := est.Prepare(plan, []string{first.ID, order[len(order)-1].ID})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	points := make([]wf.Config, 2)
	for i := range points {
		points[i] = first.Config
		randomizeConfig(rng, &points[i])
	}
	var held, heldWant *Estimate
	for n := 0; n < 6; n++ {
		first.Config = points[n%2]
		want, err := New(wl.Cluster).Estimate(plan)
		if err != nil {
			t.Fatal(err)
		}
		probe, err := prep.EstimateChanged()
		if err != nil {
			t.Fatal(err)
		}
		for id, pj := range probe.Jobs {
			if *pj != *want.Jobs[id] {
				t.Fatalf("probe %d: job %s diverged:\n  mono %+v\n  probe %+v", n, id, *want.Jobs[id], *pj)
			}
		}
		for id, pd := range probe.Datasets {
			if !datasetEstimateEqual(*pd, *want.Datasets[id]) {
				t.Fatalf("probe %d: dataset %s diverged", n, id)
			}
		}
		got, err := prep.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		requireEqualEstimates(t, want, got, fmt.Sprintf("estimate %d", n))
		if held == nil {
			held, heldWant = got, want
		}
		requireEqualEstimates(t, heldWant, held, fmt.Sprintf("held estimate after probe %d", n))
	}
	// Six probes over two points: the first visit of each computes every
	// suffix card, and every later probe recomputes the downstream ones.
	if c := est.Counts(); c.FlowCards <= uint64(2*len(order)) {
		t.Fatalf("flow cards = %d: downstream cards were never recomputed", c.FlowCards)
	}
}

// TestFlowErrorParity: a flow error is the same structured error through
// every entry point. J2 is profiled, so estimation is cost-based, but its
// profile lacks its one map branch's tag: flow fails at J2 ("missing map
// profile for tag"), reached by Estimate's full walk, by Prepare's prefix
// walk when J2 is not changeable, and by both probe paths when it is.
func TestFlowErrorParity(t *testing.T) {
	w, _, cl := buildAnnotated(t, 500)
	j2 := w.Job("J2")
	j2.Profile.MapSide = nil
	j2.Profile.MapSideByInput = nil
	prepared := func(t *testing.T) *Prepared {
		p, err := New(cl).Prepare(w, []string{"J2"})
		if err != nil {
			t.Fatalf("Prepare with J2 in the suffix: %v", err)
		}
		return p
	}
	for _, tc := range []struct {
		name string
		call func(t *testing.T) error
	}{
		{"Estimate", func(t *testing.T) error { _, err := New(cl).Estimate(w); return err }},
		{"Prepare", func(t *testing.T) error { _, err := New(cl).Prepare(w, nil); return err }},
		{"Prepared.Estimate", func(t *testing.T) error { _, err := prepared(t).Estimate(); return err }},
		{"Prepared.EstimateChanged", func(t *testing.T) error { _, err := prepared(t).EstimateChanged(); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call(t)
			var se *stubbyerr.Error
			if !errors.As(err, &se) {
				t.Fatalf("error %v (%T) is not a *stubbyerr.Error", err, err)
			}
			if se.Kind != stubbyerr.KindInvalid || se.Op != "whatif" || se.Workflow != "chain" || se.Job != "J2" {
				t.Fatalf("error = %+v, want Kind invalid, Op whatif, Workflow chain, Job J2", *se)
			}
		})
	}
}

// firstAndLast returns a plan's first and last jobs in topological order:
// declared changeable together, they make both probe paths walk the whole
// plan, and a change to the first makes every card downstream recompute.
func firstAndLast(t *testing.T, plan *wf.Workflow) []*wf.Job {
	t.Helper()
	order, err := plan.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	return []*wf.Job{order[0], order[len(order)-1]}
}

// TestPreparedRecycledMemo runs Prepareds of BR and LA in turn on one
// estimator, closing each before the next, so every memo after the first
// is built from the cards and table the previous one handed back. Every
// EstimateChanged and Estimate must stay bit-identical to a fresh
// estimator's Estimate of the same plan, and an Estimate taken before a
// Close must not change while later Prepareds rewrite the recycled cards.
func TestPreparedRecycledMemo(t *testing.T) {
	wls := equivWorkloads(t)
	// One estimator prices every plan on one cluster (BR's); the reference
	// estimates are a fresh estimator's on the same cluster.
	est := New(wls["BR"].Cluster)
	rng := rand.New(rand.NewSource(9))
	type heldEstimate struct{ got, want *Estimate }
	var held []heldEstimate
	for round, abbr := range []string{"BR", "LA", "BR", "LA", "BR"} {
		plan := wls[abbr].Workflow.Clone()
		changed := firstAndLast(t, plan)
		prep, err := est.Prepare(plan, []string{changed[0].ID, changed[1].ID})
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 4; n++ {
			for _, j := range changed {
				randomizeConfig(rng, &j.Config)
			}
			ctx := fmt.Sprintf("round %d (%s) probe %d", round, abbr, n)
			want, err := New(est.Cluster).Estimate(plan)
			if err != nil {
				t.Fatal(err)
			}
			probe, err := prep.EstimateChanged()
			if err != nil {
				t.Fatal(err)
			}
			requireEqualEstimates(t, want, probe, ctx+" EstimateChanged")
			got, err := prep.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			requireEqualEstimates(t, want, got, ctx+" Estimate")
			if n == 0 {
				held = append(held, heldEstimate{got, want})
			}
		}
		prep.Close()
		prep.Close() // a second Close does nothing
		for i, h := range held {
			requireEqualEstimates(t, h.want, h.got, fmt.Sprintf("estimate held from round %d, after round %d", i, round))
		}
	}
}

// TestPreparedCycleAllocs pins a repeated Prepare → probes → Close cycle of
// BR on one estimator. The cycle's memo reuses the cards and the table the
// previous cycle's Close handed back, so it allocates no jobCard and no card
// storage — the spare count is the same after every cycle — and the same
// cycle without Close allocates 219 times. The 192 left are Prepare's own
// (the prefix estimate and its maps, the topological order, each job's
// input and output lists, the slot pools and their snapshots),
// EstimateChanged's first walk seeding its reusable buffer, and the probes'
// recomputed output layouts' name lists (as in TestEstimateChangedAllocs).
func TestPreparedCycleAllocs(t *testing.T) {
	wl := equivWorkloads(t)["BR"]
	plan := wl.Workflow.Clone()
	changed := firstAndLast(t, plan)
	ids := []string{changed[0].ID, changed[1].ID}
	rng := rand.New(rand.NewSource(13))
	points := make([][]wf.Config, 3)
	for i := range points {
		for _, j := range changed {
			c := j.Config
			randomizeConfig(rng, &c)
			points[i] = append(points[i], c)
		}
	}
	e := New(wl.Cluster)
	cycle := func() {
		prep, err := e.Prepare(plan, ids)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range points {
			for k, j := range changed {
				j.Config = pt[k]
			}
			if _, err := prep.EstimateChanged(); err != nil {
				t.Fatal(err)
			}
		}
		prep.Close()
	}
	cycle()
	spares := len(e.spareCards)
	if spares == 0 {
		t.Fatal("Close handed no cards back")
	}
	allocs := testing.AllocsPerRun(20, cycle)
	if len(e.spareCards) != spares {
		t.Fatalf("spare cards %d after repeated cycles, %d after the first: a cycle allocated cards", len(e.spareCards), spares)
	}
	const want = 192
	if allocs != want {
		t.Fatalf("a recycled Prepare/probe/Close cycle of BR allocates %.1f times, want %d", allocs, want)
	}
}
