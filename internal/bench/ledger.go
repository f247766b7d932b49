package bench

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
)

// Ledger is the JSON document stubby-bench -ledger emits (BENCH_paper.json):
// the memo table behind every grid figure and the evaluation's claims
// evaluated over it. Everything but Run.OptimizeMS is a pure function of the
// header, so GuardLedger compares it exactly.
type Ledger struct {
	SizeFactor      float64 `json:"size_factor"`
	Seed            int64   `json:"seed"`
	ProfileFraction float64 `json:"profile_fraction"`
	// ProfilerSeed is the harness's spelling of the profiler seed (seed+17)
	// and SessionProfilerSeed Session.Profile's (seed); the cell
	// IR/"Stubby/session-seed" is planned from the latter's sample.
	ProfilerSeed        int64       `json:"profiler_seed"`
	SessionProfilerSeed int64       `json:"session_profiler_seed"`
	Notes               []string    `json:"notes"`
	Cells               []Run       `json:"cells"`
	Invariants          []Invariant `json:"invariants"`
}

// Invariant is one claim of the evaluation with its verdict per workload. A
// claim that does not hold stays in the ledger with Pass false.
type Invariant struct {
	Name     string    `json:"name"`
	Claim    string    `json:"claim"`
	Pass     bool      `json:"pass"`
	Verdicts []Verdict `json:"verdicts"`
}

// Verdict is an invariant on one workload. Margin is the slack left before
// the claim breaks, as a fraction of the subject's metric; negative is the
// size of the violation.
type Verdict struct {
	Workload string  `json:"workload"`
	Pass     bool    `json:"pass"`
	Margin   float64 `json:"margin"`
	Detail   string  `json:"detail"`
}

// Ledger evaluates every declared figure (recalling what has already run)
// and assembles the document, cells in declared order.
func (h *Harness) Ledger() (Ledger, error) {
	l := Ledger{
		SizeFactor: h.cfg.SizeFactor, Seed: h.cfg.Seed, ProfileFraction: h.cfg.ProfileFraction,
		ProfilerSeed: h.cfg.ProfilerSeed(), SessionProfilerSeed: h.cfg.Seed,
		Notes: []string{
			"speedups are anchor sim_sec over cell sim_sec; the profile figure anchors on Baseline's plan like Figures 11 and 12 (before this ledger it anchored on the unconfigured input workflow, 62-88x on IR)",
			"optimize_ms is host wall time: reported, not guarded",
			"DPnn is an nn-stage synthetic aggregation chain; FsMm is member m of gen.Family(s), profiled under seed s, its Reuse cell planned against the catalog member 0's run published and simulated over that run's DFS",
		},
	}
	listed := map[[2]string]bool{}
	for _, f := range Figures {
		cells, anchors, err := h.Eval(f)
		if err != nil {
			return Ledger{}, err
		}
		for i := range cells {
			for _, r := range []Run{anchors[i], cells[i]} {
				if key := [2]string{r.Workload, r.Variant}; !listed[key] {
					listed[key] = true
					l.Cells = append(l.Cells, r)
				}
			}
		}
	}
	l.Invariants = Invariants(l.Cells)
	return l, nil
}

// check is one claim, evaluated per workload: every subject cell's metric is
// at most (1+tol) times every rival cell's. A variant listed on both sides is
// not compared with itself, so listing two variants on both sides claims
// their metrics are equal.
type check struct {
	name, claim      string
	metric           metric
	tol              float64
	subjects, rivals []Variant
	// strict asks for a strictly smaller metric; any makes the claim hold
	// when some workload passes, not all.
	strict, any bool
	// deepTol, when set, replaces tol on the deep pipelines.
	deepTol float64
	// samePlan also asks that subject and rival chose byte-identical plans.
	samePlan bool
}

// metric is a column of Run and how a verdict's detail prints it.
type metric struct {
	of     func(Run) float64
	format string
}

var (
	estimate  = metric{func(r Run) float64 { return r.EstimateSec }, "%.1f s"}
	simulated = metric{func(r Run) float64 { return r.SimSec }, "%.1f s"}
	flowCards = metric{func(r Run) float64 { return float64(r.FlowCards) }, "%.0f flow cards"}
)

var (
	subspaces = []Variant{Vertical, Horizontal, Starfish}
	costBased = append([]Variant{Stubby, MRShare}, subspaces...)
)

var checks = []check{
	{name: "dominance-whatif", claim: "by What-if cost Stubby's plan is no costlier than Vertical's, Horizontal's or Starfish's: each searches a subset of its space under the same budget",
		metric: estimate, subjects: []Variant{Stubby}, rivals: subspaces},
	{name: "dominance-simulated", claim: "the same comparison by simulated time",
		metric: simulated, subjects: []Variant{Stubby}, rivals: subspaces},
	{name: "no-harm", claim: "no cost-based planner's plan runs slower in the simulator than Baseline's",
		metric: simulated, subjects: costBased, rivals: []Variant{Baseline}},
	{name: "composition", claim: "on some workload Stubby's plan is strictly faster than both of its transformation groups' (Figure 11: the groups compose)",
		metric: simulated, subjects: []Variant{Stubby}, rivals: []Variant{Vertical, Horizontal}, strict: true, any: true},
	{name: "ordering", claim: "Horizontal-before-Vertical beats the paper's ordering by no more than 2% (Section 4)",
		metric: simulated, tol: 0.02, subjects: []Variant{Stubby}, rivals: []Variant{HThenV}},
	// RRS minimizes the What-if estimate, so the simulated makespan wobbles a
	// few percent either way on estimator error; 15% is beyond that band.
	{name: "no-search", claim: "skipping configuration search beats RRS by no more than 15% (Section 4.2)",
		metric: simulated, tol: 0.15, subjects: []Variant{Stubby}, rivals: []Variant{NoSearch}},
	{name: "unit-scope", claim: "dynamic optimization units lose no more than 2% to one global unit (Section 4.1)",
		metric: simulated, tol: 0.02, subjects: []Variant{Stubby}, rivals: []Variant{GlobalUnit}},
	{name: "profile-fraction", claim: "at every profiling fraction the chosen plan is no slower than Baseline's",
		metric: simulated, subjects: fractions, rivals: []Variant{Baseline}},
	{name: "profiler-seed", claim: "planned from Session.Profile's sample, Stubby's plan is no slower than Baseline's",
		metric: simulated, subjects: []Variant{SessionSeed}, rivals: []Variant{Baseline}},
	{name: "incremental-transparent", claim: "incremental estimation changes nothing but the work done: the default and the monolithic search choose byte-identical plans at equal What-if cost",
		metric: estimate, subjects: []Variant{Stubby, Monolithic}, rivals: []Variant{Stubby, Monolithic}, samePlan: true},
	{name: "incremental-saves", claim: "the default search computes strictly fewer flow cards than the monolithic one, and at most half as many on the deep pipelines",
		metric: flowCards, subjects: []Variant{Stubby}, rivals: []Variant{Monolithic}, strict: true, deepTol: -0.5},
	// The optimizer's contract (ROADMAP item 4): a feature switched on never
	// returns a plan costlier than the one returned with it off.
	{name: "reuse-monotone", claim: "planned against its family's catalog, a workflow's plan costs no more by What-if estimate than planned without it",
		metric: estimate, subjects: []Variant{Reuse}, rivals: []Variant{NoReuse}},
}

// verdict evaluates the claim on one workload, whose cells it reads through
// cell; ok is false when the workload lacks one of the claim's cells.
func (c check) verdict(abbr string, cell func(Variant) (Run, bool)) (v Verdict, ok bool) {
	tol := c.tol
	if _, deep := deepPipelineStages(abbr); deep && c.deepTol != 0 {
		tol = c.deepTol
	}
	v.Workload, v.Margin = abbr, math.Inf(1)
	var tightest string
	var broken []string
	for _, sv := range c.subjects {
		for _, rv := range c.rivals {
			s, okS := cell(sv)
			r, okR := cell(rv)
			if !okS || !okR {
				return Verdict{}, false
			}
			if sv.Name == rv.Name {
				continue
			}
			margin := c.metric.of(r)*(1+tol)/c.metric.of(s) - 1
			pair := fmt.Sprintf("%s "+c.metric.format+" vs %s "+c.metric.format, sv.Name, c.metric.of(s), rv.Name, c.metric.of(r))
			plansDiffer := c.samePlan && s.Plan != r.Plan
			if plansDiffer {
				pair += " (plans differ)"
			}
			if margin < v.Margin {
				v.Margin, tightest = margin, pair
			}
			if margin < 0 || c.strict && margin == 0 || plansDiffer {
				broken = append(broken, pair)
			}
		}
	}
	if v.Pass = len(broken) == 0; v.Pass {
		v.Detail = "tightest: " + tightest
	} else {
		v.Detail = "broken: " + strings.Join(broken, "; ")
	}
	return v, true
}

// Invariants evaluates the evaluation's claims over a set of cells, each on
// the workloads that have all of its cells; a claim with none is left out.
func Invariants(cells []Run) []Invariant {
	byKey := map[[2]string]Run{}
	var abbrs []string
	for _, c := range cells {
		if !slices.Contains(abbrs, c.Workload) {
			abbrs = append(abbrs, c.Workload)
		}
		byKey[[2]string{c.Workload, c.Variant}] = c
	}
	var out []Invariant
	for _, c := range checks {
		inv := Invariant{Name: c.name, Claim: c.claim, Pass: !c.any}
		for _, abbr := range abbrs {
			v, ok := c.verdict(abbr, func(v Variant) (Run, bool) {
				r, ok := byKey[[2]string{abbr, v.Name}]
				return r, ok
			})
			if !ok {
				continue
			}
			inv.Verdicts = append(inv.Verdicts, v)
			// One passing workload settles an any-claim, one failing
			// workload every other.
			if v.Pass == c.any {
				inv.Pass = c.any
			}
		}
		if len(inv.Verdicts) > 0 {
			out = append(out, inv)
		}
	}
	return out
}

// GuardLedger is the CI check of a fresh ledger against the committed one:
// header, cells (but for optimize_ms) and every invariant's verdicts must be
// equal. The error names each cell or invariant that is not.
func GuardLedger(fresh, baseline Ledger) error {
	var diffs []string
	differ := func(what string, got, want any) {
		if !reflect.DeepEqual(got, want) {
			diffs = append(diffs, fmt.Sprintf("%s: got %+v, baseline %+v", what, got, want))
		}
	}
	differ("number of cells", len(fresh.Cells), len(baseline.Cells))
	differ("number of invariants", len(fresh.Invariants), len(baseline.Invariants))
	if len(diffs) == 0 {
		for i, c := range fresh.Cells {
			b := baseline.Cells[i]
			c.OptimizeMS, b.OptimizeMS = 0, 0
			differ(fmt.Sprintf("cell %s/%s", b.Workload, b.Variant), c, b)
		}
		for i, inv := range fresh.Invariants {
			differ("invariant "+baseline.Invariants[i].Name, inv, baseline.Invariants[i])
		}
	}
	fresh.Cells, fresh.Invariants = nil, nil
	baseline.Cells, baseline.Invariants = nil, nil
	differ("header", fresh, baseline)
	if len(diffs) > 0 {
		return fmt.Errorf("ledger guard: %d differences from baseline:\n  %s", len(diffs), strings.Join(diffs, "\n  "))
	}
	return nil
}
