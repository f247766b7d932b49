package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

// shared is one harness at the test size whose whole ledger is computed once
// for the tests that read grid cells, with every search it ran counted.
var shared struct {
	once     sync.Once
	h        *Harness
	searches map[[2]string]int
	ledger   Ledger
	err      error
}

func sharedHarness(t *testing.T) *Harness {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment driver; skipped in -short")
	}
	shared.once.Do(func() {
		shared.h, shared.searches = testHarness(), map[[2]string]int{}
		shared.h.onSearch = func(abbr, variant string) { shared.searches[[2]string{abbr, variant}]++ }
		shared.ledger, shared.err = shared.h.Ledger()
	})
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	return shared.h
}

// TestRunMemoized: each distinct (workload, variant) is searched and
// simulated once per harness however many figures and ledgers ask for it —
// the default Stubby search 11 times (8 workloads and 3 deep pipelines), its
// subplan-keeping twin once (Figure 14) and Baseline 8, where the per-figure
// drivers ran them 43 and 24 times and the optimizer bench the 11 three times
// more — and a Robust cell, a replay of its Stubby cell's plan, is not
// searched at all. A plan is simulated once per sample too, however many
// variants and subplans choose it.
func TestRunMemoized(t *testing.T) {
	h := sharedHarness(t)
	for _, f := range Figures {
		if _, _, err := h.Eval(f); err != nil {
			t.Fatal(err)
		}
	}
	again, err := h.Ledger()
	if err != nil {
		t.Fatal(err)
	}
	if err := GuardLedger(again, shared.ledger); err != nil {
		t.Errorf("second ledger of one harness differs: %v", err)
	}
	perVariant := map[string]int{}
	for key, n := range shared.searches {
		if n != 1 {
			t.Errorf("%s/%s ran %d times, want 1", key[0], key[1], n)
		}
		perVariant[key[1]]++
	}
	cells := len(shared.ledger.Cells)
	if got, want := len(shared.searches), cells-len(hotPathWorkloads); got != want {
		t.Errorf("%d searches for %d cells, want %d: one per cell but the Robust ones", got, cells, want)
	}
	if got := perVariant[Robust.Name]; got != 0 {
		t.Errorf("the Robust cells searched %d times, want 0", got)
	}
	if got := perVariant[Stubby.Name]; got != 11 {
		t.Errorf("default Stubby search ran %d times, want 11", got)
	}
	if got := perVariant[Subplans.Name]; got != 1 {
		t.Errorf("the subplan-keeping search ran %d times, want 1", got)
	}
	if got := perVariant[Baseline.Name]; got != 8 {
		t.Errorf("Baseline planned and simulated %d times, want 8", got)
	}
	// Every Monolithic cell repeats its workload's Stubby plan and every
	// Robust cell is its Stubby cell, so at least those 22 cells cost no
	// simulation; Figure 14's subplans may cost one each.
	subplans := len(h.runs[[2]string{"IR", Subplans.Name}].Subplans)
	if len(h.sims) > cells-2*len(hotPathWorkloads)+subplans {
		t.Errorf("%d simulations for %d cells: repeated plans were run again", len(h.sims), cells)
	}
	t.Logf("%d cells, %d simulations", cells, len(h.sims))
}

// TestRobustCellIsStubbyCell: a Robust cell is its workload's Stubby cell —
// plan, estimate, simulated seconds, counters and yields — with the replay's
// columns added and its own name and time.
func TestRobustCellIsStubbyCell(t *testing.T) {
	h := sharedHarness(t)
	for _, abbr := range hotPathWorkloads {
		rob, stubby := h.runs[[2]string{abbr, Robust.Name}].Run, h.runs[[2]string{abbr, Stubby.Name}].Run
		if rob.P99Sec <= 0 || rob.MeanSec <= 0 {
			t.Errorf("%s: Robust cell has no report: %+v", abbr, rob)
		}
		rob.Variant, rob.OptimizeMS = stubby.Variant, stubby.OptimizeMS
		rob.MeanSec, rob.P95Sec, rob.P99Sec, rob.FailedOut = 0, 0, 0, 0
		if got, want := mustJSON(t, rob), mustJSON(t, stubby); !bytes.Equal(got, want) {
			t.Errorf("%s: Robust cell differs from its Stubby cell beyond the report:\n%s\n%s", abbr, got, want)
		}
	}
}

// zeroTimes clears the one column that is not a pure function of the header.
func zeroTimes(l Ledger) Ledger {
	l.Cells = append([]Run(nil), l.Cells...)
	for i := range l.Cells {
		l.Cells[i].OptimizeMS = 0
	}
	return l
}

// TestLedgerDeterministic: a second harness produces the same ledger byte
// for byte once optimize_ms is zeroed, and its direct run of a cell equals
// the first harness's memoized one as a figure reads it. The reuse cell is
// the first thing the second harness runs and among the last the first one
// did: its catalog counters and plan must not depend on what ran before, nor
// on the temporary directory the catalog lived in.
func TestLedgerDeterministic(t *testing.T) {
	h := sharedHarness(t)
	fresh := testHarness()
	for _, c := range []struct {
		abbr string
		v    Variant
	}{{"F2M2", Reuse}, {"PJ", Stubby}} {
		direct, err := fresh.Run(c.abbr, c.v)
		if err != nil {
			t.Fatal(err)
		}
		cells, _, err := h.Eval(Figure{Workloads: []string{c.abbr}, Variants: []Variant{c.v}, Anchor: c.v})
		if err != nil {
			t.Fatal(err)
		}
		direct.OptimizeMS, cells[0].OptimizeMS = 0, 0
		if got, want := mustJSON(t, cells[0]), mustJSON(t, direct); !bytes.Equal(got, want) {
			t.Errorf("memoized cell differs from a fresh harness's direct run:\n%s\n%s", got, want)
		}
	}
	second, err := fresh.Ledger()
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, zeroTimes(shared.ledger)), mustJSON(t, zeroTimes(second)); !bytes.Equal(a, b) {
		t.Errorf("two harnesses produced different ledgers: %v", GuardLedger(second, shared.ledger))
	}
}

// near compares margins, which are quotients.
func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// row builds a hand-made cell: estimate and simulated seconds only.
func row(abbr string, v Variant, est, sim float64) Run {
	return Run{Workload: abbr, Variant: v.Name, Jobs: 2, Plan: "p-" + v.Name, EstimateSec: est, SimSec: sim}
}

func guardLedger() Ledger {
	cells := []Run{
		row("IR", Baseline, 120, 100), row("IR", Stubby, 80, 70), row("IR", Vertical, 80, 70),
		row("IR", Horizontal, 90, 95), row("IR", Starfish, 85, 90), row("IR", MRShare, 110, 100),
		row("IR", Subplans, 80, 70),
	}
	cells[1].WhatIfCalls, cells[1].OptimizeMS = 4894, 200
	cells[6].Subplans = []SubplanCost{{Description: "no structural change", EstimateSec: 10, SimSec: 12}}
	return Ledger{SizeFactor: 0.25, Seed: 1, ProfileFraction: 0.5, ProfilerSeed: 18, SessionProfilerSeed: 1,
		Cells: cells, Invariants: Invariants(cells)}
}

func TestGuardLedger(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Ledger)
		want   string // substring of the error; empty means the guard passes
	}{
		{"identical", func(l *Ledger) {}, ""},
		{"optimize_ms", func(l *Ledger) { l.Cells[1].OptimizeMS = 9000 }, ""},
		{"simulated second", func(l *Ledger) { l.Cells[1].SimSec += 0.1 }, "cell IR/Stubby"},
		{"job count", func(l *Ledger) { l.Cells[3].Jobs++ }, "cell IR/Horizontal"},
		{"what-if count", func(l *Ledger) { l.Cells[1].WhatIfCalls++ }, "cell IR/Stubby"},
		{"invariant verdict", func(l *Ledger) { l.Invariants[2].Pass = !l.Invariants[2].Pass }, "invariant no-harm"},
		{"margin", func(l *Ledger) { l.Invariants[0].Verdicts[0].Margin += 0.01 }, "invariant dominance-whatif"},
		{"missing cell", func(l *Ledger) { l.Cells = l.Cells[:5] }, "number of cells: got 5, baseline 7"},
		{"extra cell", func(l *Ledger) { l.Cells = append(l.Cells, row("IR", YSmart, 1, 1)) }, "number of cells: got 8, baseline 7"},
		{"subplans", func(l *Ledger) { l.Cells[6].Subplans[0].SimSec = 13 }, "cell IR/Stubby/subplans"},
		{"header", func(l *Ledger) { l.Seed = 2 }, "header"},
	}
	for _, c := range cases {
		fresh := guardLedger()
		c.mutate(&fresh)
		err := GuardLedger(fresh, guardLedger())
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: want an error naming %q, got %v", c.name, c.want, err)
		}
	}
}

// TestInvariants evaluates the claims over hand-built rows.
func TestInvariants(t *testing.T) {
	find := func(invs []Invariant, name string) Invariant {
		t.Helper()
		for _, inv := range invs {
			if inv.Name == name {
				return inv
			}
		}
		t.Fatalf("no invariant %q in %+v", name, invs)
		return Invariant{}
	}
	// A: everything holds, and Stubby beats both groups. B: Starfish's plan is
	// cheaper than Stubby's by estimate and by simulation, Horizontal's runs
	// slower than Baseline's, and Stubby only ties Vertical.
	cells := []Run{
		row("A", Baseline, 120, 100), row("A", Stubby, 70, 60), row("A", Vertical, 80, 70),
		row("A", Horizontal, 90, 95), row("A", Starfish, 85, 90), row("A", MRShare, 110, 100),
		row("B", Baseline, 120, 100), row("B", Stubby, 80, 70), row("B", Vertical, 80, 70),
		row("B", Horizontal, 90, 125), row("B", Starfish, 64, 56), row("B", MRShare, 110, 100),
	}
	invs := Invariants(cells)
	if len(invs) != 4 {
		t.Errorf("%d invariants over Figure 11/12 cells alone, want the 4 they decide: %+v", len(invs), invs)
	}
	for _, name := range []string{"dominance-whatif", "dominance-simulated"} {
		inv := find(invs, name)
		a, b := inv.Verdicts[0], inv.Verdicts[1]
		if inv.Pass || !a.Pass || b.Pass || b.Workload != "B" {
			t.Errorf("%s: want A to pass and B to fail: %+v", name, inv)
		}
		if !near(b.Margin, -0.2) || !strings.Contains(b.Detail, "Starfish") || strings.Contains(b.Detail, "Vertical") {
			t.Errorf("%s on B: want margin -0.2 naming Starfish alone, got %+v", name, b)
		}
	}
	harm := find(invs, "no-harm")
	if b := harm.Verdicts[1]; harm.Pass || !harm.Verdicts[0].Pass || b.Pass || !near(b.Margin, -0.2) || !strings.Contains(b.Detail, "Horizontal 125.0 s vs Baseline 100.0 s") {
		t.Errorf("no-harm: want B to fail on Horizontal by -0.2: %+v", harm)
	}
	if comp := find(invs, "composition"); !comp.Pass || !comp.Verdicts[0].Pass || comp.Verdicts[1].Pass {
		t.Errorf("composition: want 1 of 2 (A) and so a pass: %+v", comp)
	}
	// Composition 0 of N: Stubby ties a group on every workload.
	if comp := find(Invariants(cells[6:]), "composition"); comp.Pass || len(comp.Verdicts) != 1 {
		t.Errorf("composition: want 0 of 1 and so a failure: %+v", comp)
	}
	// The ablation claims carry their tolerance.
	abl := Invariants([]Run{row("A", Stubby, 0, 101), row("A", HThenV, 0, 100), row("A", GlobalUnit, 0, 98), row("A", NoSearch, 0, 90)})
	if !find(abl, "ordering").Pass || find(abl, "unit-scope").Pass || !find(abl, "no-search").Pass {
		t.Errorf("want ordering (1%% < 2%%) and no-search (12%% < 15%%) to pass and unit-scope (3%% > 2%%) to fail: %+v", abl)
	}
	// The hot-path claims. A: same plan and estimate, fewer flow cards. B:
	// another plan, and the flow cards only tie. C: the estimates differ.
	// DP08 computes 40% of the monolithic flow cards, DP12 60%.
	hot := func(abbr string, v Variant, plan string, est float64, cards uint64) Run {
		return Run{Workload: abbr, Variant: v.Name, Plan: plan, EstimateSec: est, FlowCards: cards}
	}
	invs = Invariants([]Run{
		hot("A", Stubby, "p", 80, 90), hot("A", Monolithic, "p", 80, 100),
		hot("B", Stubby, "p", 80, 100), hot("B", Monolithic, "q", 80, 100),
		hot("C", Stubby, "p", 80, 90), hot("C", Monolithic, "p", 81, 100),
		hot("DP08", Stubby, "p", 80, 40), hot("DP08", Monolithic, "p", 80, 100),
		hot("DP12", Stubby, "p", 80, 60), hot("DP12", Monolithic, "p", 80, 100),
	})
	verdicts := func(inv Invariant) (pass []bool, margin []float64) {
		for _, v := range inv.Verdicts {
			pass, margin = append(pass, v.Pass), append(margin, v.Margin)
		}
		return pass, margin
	}
	// Equality is the inequality both ways: the larger estimate on either
	// side breaks it, by the same negative margin.
	same := find(invs, "incremental-transparent")
	pass, margin := verdicts(same)
	if same.Pass || !slices.Equal(pass, []bool{true, false, false, true, true}) ||
		margin[0] != 0 || margin[1] != 0 || !near(margin[2], 80.0/81-1) ||
		!strings.Contains(same.Verdicts[1].Detail, "plans differ") || strings.Contains(same.Verdicts[2].Detail, "plans differ") {
		t.Errorf("incremental-transparent: want B to fail on its plan and C on its estimate by -1.2%%: %+v", same)
	}
	saves := find(invs, "incremental-saves")
	pass, margin = verdicts(saves)
	if saves.Pass || !slices.Equal(pass, []bool{true, false, true, true, false}) ||
		!near(margin[0], 100.0/90-1) || margin[1] != 0 || !near(margin[3], 50.0/40-1) || !near(margin[4], 50.0/60-1) ||
		!strings.Contains(saves.Verdicts[4].Detail, "Stubby 60 flow cards vs Monolithic 100 flow cards") {
		t.Errorf("incremental-saves: want the tie (B) and more than half on a deep pipeline (DP12, -16.7%%) to fail: %+v", saves)
	}
	// Reuse must be monotone; the second member's plan is 1.2% costlier with
	// the catalog than without.
	mono := find(Invariants([]Run{
		row("F2M1", NoReuse, 520.5, 0), row("F2M1", Reuse, 517.8, 0),
		row("F2M2", NoReuse, 517.92, 0), row("F2M2", Reuse, 524.01, 0),
	}), "reuse-monotone")
	if b := mono.Verdicts[1]; mono.Pass || !mono.Verdicts[0].Pass || b.Pass || b.Workload != "F2M2" ||
		!near(b.Margin, 517.92/524.01-1) || b.Margin > -0.011 || !strings.Contains(b.Detail, "Reuse 524.0 s vs NoReuse 517.9 s") {
		t.Errorf("reuse-monotone: want F2M2 alone to fail by -1.2%%: %+v", mono)
	}
}
