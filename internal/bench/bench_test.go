package bench

import "testing"

func testHarness() *Harness {
	return New(Config{SizeFactor: 0.15, Seed: 1})
}

func TestTable1Inventory(t *testing.T) {
	h := testHarness()
	rows, err := h.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Records <= 0 || r.Jobs <= 0 {
			t.Errorf("%s: empty workload", r.Abbr)
		}
		// Virtual size must match the paper's dataset size closely.
		if r.VirtualGB < r.PaperGB*0.95 || r.VirtualGB > r.PaperGB*1.05 {
			t.Errorf("%s: virtual %.1f GB, paper %.1f GB", r.Abbr, r.VirtualGB, r.PaperGB)
		}
	}
	if rows[0].Abbr != "IR" || rows[5].Jobs != 7 {
		t.Error("Table 1 order or BR job count wrong")
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver; skipped in -short")
	}
	h := testHarness()
	rows, err := h.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	for _, r := range rows {
		switch r.Case {
		case "improvement":
			if r.Speedup <= 1 {
				t.Errorf("%s improvement should exceed 1x, got %.2f", r.Transformation, r.Speedup)
			}
		case "degradation":
			if r.Speedup >= 1 {
				t.Errorf("%s degradation should be below 1x, got %.2f", r.Transformation, r.Speedup)
			}
		}
	}
}

func TestComparePlannersOnPJ(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment driver; skipped in -short")
	}
	// The Post-processing Jobs decision (Section 7.2): rule-based packing
	// (Baseline/YSmart) loses to cost-based refusal to pack.
	h := testHarness()
	cells, anchors, err := h.Eval(Figure{Workloads: []string{"PJ"}, Variants: []Variant{Stubby, YSmart}, Anchor: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	stubbySpeed := anchors[0].SimSec / cells[0].SimSec
	ysmartSpeed := anchors[1].SimSec / cells[1].SimSec
	if stubbySpeed < 1 {
		t.Errorf("Stubby slower than Baseline on PJ: %.2fx", stubbySpeed)
	}
	if stubbySpeed < ysmartSpeed {
		t.Errorf("Stubby (%.2fx) should beat YSmart (%.2fx) on PJ", stubbySpeed, ysmartSpeed)
	}
}

// figure returns the declared figure with the given ID.
func figure(t *testing.T, id string) Figure {
	t.Helper()
	for _, f := range Figures {
		if f.ID == id {
			return f
		}
	}
	t.Fatalf("no figure %q declared", id)
	return Figure{}
}

func TestFigure13Overhead(t *testing.T) {
	cells, anchors, err := sharedHarness(t).Eval(figure(t, "13"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("%d rows, want 8", len(cells))
	}
	for i, r := range cells {
		if r.OptimizeMS <= 0 || anchors[i].SimSec <= 0 {
			t.Errorf("%s: empty measurements", r.Workload)
		}
	}
}

// TestFigure14Scatter reads Figure 14's cell: the first unit of IR keeps its
// subplans, the identity among them, each estimated and simulated, and the
// estimator agrees with the engine at the extremes — the subplan What-if
// rates best simulates within 1.3x of the one that simulates best.
func TestFigure14Scatter(t *testing.T) {
	cells, _, err := sharedHarness(t).Eval(figure(t, "14"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Workload != "IR" || cells[0].Variant != Subplans.Name {
		t.Fatalf("want the one IR/%s cell, got %+v", Subplans.Name, cells)
	}
	points := cells[0].Subplans
	if len(points) < 3 {
		t.Fatalf("only %d subplans enumerated", len(points))
	}
	sawIdentity := false
	bestEst, bestSim := 0, 0
	for i, p := range points {
		if p.EstimateSec <= 0 || p.SimSec <= 0 {
			t.Errorf("subplan without a cost: %+v", p)
		}
		sawIdentity = sawIdentity || p.Description == "no structural change"
		if p.EstimateSec < points[bestEst].EstimateSec {
			bestEst = i
		}
		if p.SimSec < points[bestSim].SimSec {
			bestSim = i
		}
	}
	if !sawIdentity {
		t.Error("identity subplan missing from the deep dive")
	}
	if est, sim := points[bestEst], points[bestSim]; est.SimSec > sim.SimSec*1.3 {
		t.Errorf("What-if's best subplan %q simulates %.1f s, the engine's best %q %.1f s",
			est.Description, est.SimSec, sim.Description, sim.SimSec)
	}
}

func TestHarnessCachesWorkloads(t *testing.T) {
	h := testHarness()
	a, err := h.workload("PJ")
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.workload("PJ")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("workload not cached")
	}
	if _, err := h.workload("XX"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestWhatIfCounts locks in the estimate cache's headline property on the
// bench harness: across the eight paper workloads, the cached search issues
// the same requests but computes measurably fewer estimates, while choosing
// byte-identical plans.
func TestWhatIfCounts(t *testing.T) {
	cells, _, err := sharedHarness(t).Eval(figure(t, "whatif"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3*8 {
		t.Fatalf("%d cells, want 8 rows of 3", len(cells))
	}
	var uncached, computed uint64
	for i := 0; i < len(cells); i += 3 {
		off, on, repeat := cells[i], cells[i+1], cells[i+2]
		for _, r := range []Run{on, repeat} {
			if r.Plan != off.Plan || r.EstimateSec != off.EstimateSec {
				t.Errorf("%s: %s and uncached searches chose different plans", off.Workload, r.Variant)
			}
		}
		if on.WhatIfCalls != off.WhatIfCalls {
			t.Errorf("%s: cached search issued %d requests, uncached issued %d — the search itself changed",
				off.Workload, on.WhatIfCalls, off.WhatIfCalls)
		}
		if on.WhatIfComputed >= off.WhatIfComputed {
			t.Errorf("%s: cache absorbed nothing (%d computed of %d)",
				off.Workload, on.WhatIfComputed, off.WhatIfComputed)
		}
		if repeat.WhatIfComputed != 0 {
			t.Errorf("%s: repeat optimization recomputed %d estimates, want 0", off.Workload, repeat.WhatIfComputed)
		}
		uncached += off.WhatIfComputed
		computed += on.WhatIfComputed
	}
	if computed >= uncached {
		t.Fatalf("no aggregate saving: %d computed of %d uncached", computed, uncached)
	}
	t.Logf("what-if computations: %d uncached -> %d cached (%.1f%% absorbed)",
		uncached, computed, 100*float64(uncached-computed)/float64(uncached))
}

// TestReuseBench: on the overlapping families, every consumer member's search
// hits the catalog member 0 populated. A member that replaces a sub-DAG with
// a scan has fewer jobs than the workflow it was given (and ran on the
// simulated cluster over the stored results, or there would be no cell); one
// that replaces none, because the plan searched without the rewrite was no
// costlier, is that plan byte for byte. F2M2 is the one such member.
func TestReuseBench(t *testing.T) {
	h := sharedHarness(t)
	cells, anchors, err := h.Eval(figure(t, "reuse"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 10 {
		t.Fatalf("%d cells, want the 2 consumers of each of 5 families", len(cells))
	}
	for i, r := range cells {
		wl, err := h.workload(r.Workload)
		if err != nil {
			t.Fatal(err)
		}
		if r.CatalogHits == 0 {
			t.Errorf("%s: no catalog hits: %+v", r.Workload, r)
		}
		if wantReuse := r.Workload != "F2M2"; wantReuse != (r.ReusedSubplans > 0) {
			t.Errorf("%s: reused %d sub-plans, want some: %v", r.Workload, r.ReusedSubplans, wantReuse)
		}
		if r.ReusedSubplans == 0 && (r.Plan != anchors[i].Plan || r.EstimateSec != anchors[i].EstimateSec) {
			t.Errorf("%s: reused nothing, yet its plan is not the one planned without the catalog: %+v", r.Workload, r)
		}
		if r.ReusedSubplans > 0 && r.Jobs >= len(wl.Workflow.Jobs) {
			t.Errorf("%s: reuse plan did not shrink (%d -> %d jobs)", r.Workload, len(wl.Workflow.Jobs), r.Jobs)
		}
		if r.EstimateSec <= 0 || anchors[i].EstimateSec <= 0 {
			t.Errorf("%s: missing cost estimates: %+v", r.Workload, r)
		}
		if a := anchors[i]; a.ReusedSubplans != 0 || a.CatalogHits+a.CatalogMisses != 0 {
			t.Errorf("%s: the cell planned without a catalog reports catalog activity: %+v", r.Workload, a)
		}
	}
}
