package bench

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"slices"
	"text/tabwriter"
	"time"

	"github.com/stubby-mr/stubby/internal/baselines"
	"github.com/stubby-mr/stubby/internal/catalog"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/optimizer"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/whatif"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// Variant is one way of planning a workload: a registry planner, the base
// options handed to its search, and the profile sample it plans from. Name
// is the cell's identity in the memo table and the ledger, so two figures
// that list the same variant share its runs.
type Variant struct {
	Name string
	// Planner is the registry name; empty means "stubby".
	Planner string
	// Options is the base baselines.CostBased.Search lays the planner's
	// selection over (rule-based planners ignore it).
	Options optimizer.Options
	// Cached searches against the harness's shared estimate cache. Such a
	// cell reports the cache's state when it ran: a figure lists CacheOn
	// before CacheRepeat and Eval runs cells in declared order.
	Cached bool
	// Reuse plans a generated family member against the catalog its
	// family's member 0 published (reusebench.go), attached for this one
	// search as Cached attaches the estimate cache.
	Reuse bool
	// Fraction overrides Config.ProfileFraction (0 keeps it); SessionSeed
	// profiles under Session.Profile's seed instead of Config.ProfilerSeed.
	Fraction    float64
	SessionSeed bool
	// Robustness, when non-nil, makes the cell the workload's Stubby cell
	// with its plan's Monte-Carlo makespan distribution under the fault
	// model added, as a session with stubby.WithRobustness serves it.
	Robustness *whatif.RobustnessOptions
}

func planner(name string) Variant { return Variant{Name: name, Planner: name} }

func fraction(f float64) Variant {
	return Variant{Name: fmt.Sprintf("Stubby@%.2f", f), Fraction: f}
}

// fractions is the profile figure's sweep; its row at the default fraction is
// the Stubby cell.
var fractions = []Variant{fraction(0.05), fraction(0.10), fraction(0.25), Stubby, fraction(1)}

// The declared variants. Stubby is the default search on the harness's own
// sample: the cell Figures 11, 12 and 13, every ablation's default row, the
// estimate-cache table's cache-off row and the profile figure's row at
// Config.ProfileFraction all read.
var (
	Baseline    = planner("Baseline")
	Stubby      = planner("Stubby")
	Vertical    = planner("Vertical")
	Horizontal  = planner("Horizontal")
	Starfish    = planner("Starfish")
	YSmart      = planner("YSmart")
	MRShare     = planner("MRShare")
	HThenV      = Variant{Name: "H-then-V", Options: optimizer.Options{HorizontalFirst: true}}
	Random      = Variant{Name: "Random", Options: optimizer.Options{ConfigSearch: optimizer.SearchRandom}}
	NoSearch    = Variant{Name: "NoSearch", Options: optimizer.Options{DisableConfigSearch: true}}
	GlobalUnit  = Variant{Name: "GlobalUnit", Options: optimizer.Options{GlobalUnit: true, MaxSubplans: 256}}
	CacheOn     = Variant{Name: "cache-on", Cached: true}
	CacheRepeat = Variant{Name: "cache-repeat", Cached: true}
	SessionSeed = Variant{Name: "Stubby/session-seed", SessionSeed: true}
	// Monolithic re-estimates the whole workflow on every configuration
	// probe instead of only the cone the probe affects.
	Monolithic = Variant{Name: "Monolithic", Options: optimizer.Options{DisableIncremental: true}}
	// Robust scores Stubby's plan's scheduling layer under the standard
	// fault profile; seed and sample count are fixed so cells repeat.
	Robust = Variant{Name: "Robust", Robustness: &whatif.RobustnessOptions{
		Model: mrsim.StandardFaultProfile(42), Samples: 32}}
	// The reuse figure's pair caps the configuration search so its cells
	// measure the reuse pre-pass, not RRS.
	NoReuse = Variant{Name: "NoReuse", Options: optimizer.Options{RRSEvals: 40}}
	Reuse   = Variant{Name: "Reuse", Options: NoReuse.Options, Reuse: true}
	// Subplans is the default search keeping its first unit's subplans, each
	// of which the cell then simulates: Figure 14's scatter.
	Subplans = Variant{Name: "Stubby/subplans", Options: optimizer.Options{KeepSubplans: true}}
)

// Figure declares one grid-shaped result: the cells of Workloads × Variants,
// each read against the Anchor variant's cell on the same workload.
type Figure struct {
	ID, Title string
	// Workloads lists abbreviations; nil means every paper workload.
	Workloads []string
	Variants  []Variant
	Anchor    Variant
}

// ablationWorkloads is the subset the structural ablations run on: one
// vertically-dominated workflow (IR), the horizontally-dominated one (BR),
// and the largest mixed one (BA).
var ablationWorkloads = []string{"IR", "BR", "BA"}

// hotPathWorkloads adds the deep pipelines to the paper's set: the regime
// where an optimization unit is a small window of the plan.
var hotPathWorkloads = slices.Concat(workloads.Abbrs(), deepPipelines)

// Figures is the evaluation's grid: every figure, ablation and table that is
// a set of (workload, variant) cells.
var Figures = []Figure{
	{ID: "11", Title: "Figure 11: speedup over Baseline by Stubby, Vertical, and Horizontal",
		Variants: []Variant{Stubby, Vertical, Horizontal}, Anchor: Baseline},
	{ID: "12", Title: "Figure 12: speedup over Baseline by Stubby, Starfish, YSmart, and MRShare",
		Variants: []Variant{Stubby, Starfish, YSmart, MRShare}, Anchor: Baseline},
	// The optimizer runs on the host clock and workflows on the simulated
	// one; the paper's "small relative overhead" shape is what carries over.
	{ID: "13", Title: "Figure 13: optimization overhead (optimization time over the Baseline plan's simulated runtime)",
		Variants: []Variant{Stubby}, Anchor: Baseline},
	// Section 4: horizontal packing first builds combined map-output keys
	// that block later vertical packing, so reversing the order should never
	// win and should lose on vertically-packable workflows.
	{ID: "ordering", Title: "Ablation: phase ordering (Section 4 argues Vertical before Horizontal)",
		Workloads: ablationWorkloads, Variants: []Variant{Stubby, HThenV}, Anchor: Stubby},
	// RRS (the paper's choice), uniform random sampling under the same
	// evaluation budget, and configurations as submitted.
	{ID: "search", Title: "Ablation: configuration search strategy (Section 4.2 chooses RRS)",
		Workloads: ablationWorkloads, Variants: []Variant{Stubby, Random, NoSearch}, Anchor: Stubby},
	// The global unit searches a strictly larger joint space per invocation
	// at an optimization-time cost that grows with workflow size — the
	// divide-and-conquer argument of Section 4.1.
	{ID: "units", Title: "Ablation: dynamic optimization units vs one global unit (Section 4.1)",
		Workloads: ablationWorkloads, Variants: []Variant{Stubby, GlobalUnit}, Anchor: Stubby},
	// The information-spectrum trade-off between profiling cost and
	// optimization fidelity (Sections 2.2 and 5).
	{ID: "profile", Title: "Ablation: profile sampling fraction (IR), estimate accuracy and plan quality",
		Workloads: []string{"IR"}, Variants: fractions, Anchor: Baseline},
	{ID: "seed", Title: "Profiler seed (IR): the harness's sample against Session.Profile's",
		Workloads: []string{"IR"}, Variants: []Variant{Stubby, SessionSeed}, Anchor: Baseline},
	{ID: "whatif", Title: "What-if activity per workload: estimate cache off, on, then a cached repeat",
		Variants: []Variant{Stubby, CacheOn, CacheRepeat}, Anchor: Stubby},
	// Incremental estimation is bit-transparent: both searches issue the
	// same requests and choose the same plan, and the default one computes
	// fewer flow cards in less optimization time.
	{ID: "incremental", Title: "Optimizer hot path: incremental (Stubby) vs monolithic What-if estimation",
		Workloads: hotPathWorkloads, Variants: []Variant{Stubby, Monolithic}, Anchor: Monolithic},
	{ID: "robustness", Title: "Plan robustness: the chosen plan's makespan under the standard fault profile (32 perturbation samples, seed 42)",
		Workloads: hotPathWorkloads, Variants: []Variant{Robust}, Anchor: Stubby},
	{ID: "reuse", Title: "Cross-workflow sub-plan reuse on overlapping families (member 0 runs and publishes, members 1 and 2 plan against its catalog)",
		Workloads: familyConsumers, Variants: []Variant{Reuse}, Anchor: NoReuse},
	// Section 7: the estimator need not be exact, only rank a unit's
	// subplans the way the engine runs them.
	{ID: "14", Title: "Figure 14: estimated vs simulated cost of every subplan of IR's first optimization unit",
		Workloads: []string{"IR"}, Variants: []Variant{Subplans}, Anchor: Stubby},
}

func (f Figure) workloads() []string {
	if f.Workloads == nil {
		return workloads.Abbrs()
	}
	return f.Workloads
}

// Run is one cell of the grid: a workload planned under a variant, the plan
// costed by the What-if engine and executed on the simulated cluster.
type Run struct {
	Workload string `json:"workload"`
	Variant  string `json:"variant"`
	// Jobs is the plan's job count; Plan the first 16 hex digits of the
	// SHA-256 of its planio encoding, so equal plans read as equal.
	Jobs int    `json:"jobs"`
	Plan string `json:"plan_sha256"`
	// EstimateSec is the What-if makespan of the plan (the search's own
	// final estimate for a cost-based planner) and SimSec its simulated one.
	EstimateSec float64 `json:"estimate_sec"`
	SimSec      float64 `json:"sim_sec"`
	// OptimizeMS is the planner's real running time: the one column that is
	// not a pure function of (size, seed).
	OptimizeMS float64 `json:"optimize_ms"`
	// WhatIfCalls, WhatIfComputed, FlowCards and Yield are the search's
	// counters, zero for a rule-based planner. Yield sums
	// optimizer.UnitReport.Yield per structural phase, rows that proposed
	// nothing left out.
	WhatIfCalls    uint64       `json:"whatif_calls"`
	WhatIfComputed uint64       `json:"whatif_computed"`
	FlowCards      uint64       `json:"flow_cards"`
	Yield          []PhaseYield `json:"yield,omitempty"`
	// MeanSec, P95Sec, P99Sec and FailedOut are the plan's makespan
	// distribution under the variant's fault model (EstimateSec is the
	// fault-free nominal), FailedOut the samples in which some task
	// exhausted its retries: a Robust cell's columns.
	MeanSec   float64 `json:"robust_mean_sec,omitempty"`
	P95Sec    float64 `json:"robust_p95_sec,omitempty"`
	P99Sec    float64 `json:"robust_p99_sec,omitempty"`
	FailedOut int     `json:"robust_failed_out,omitempty"`
	// ReusedSubplans counts the rooted sub-DAGs the pre-pass replaced with
	// scans of stored results, CatalogHits and CatalogMisses the search's
	// catalog lookups: a Reuse cell's columns.
	ReusedSubplans int    `json:"reused_subplans,omitempty"`
	CatalogHits    uint64 `json:"catalog_hits,omitempty"`
	CatalogMisses  uint64 `json:"catalog_misses,omitempty"`
	// Subplans is a Subplans cell's column: its first unit's subplans in
	// enumeration order.
	Subplans []SubplanCost `json:"subplans,omitempty"`
}

// SubplanCost is one subplan of an optimization unit: the unit's span by
// What-if estimate after configuration search (the cost the search ranked
// it by) and in the simulator. Both spans run over the subplan's jobs made
// only of the unit's original jobs, from the first start to the last end.
type SubplanCost struct {
	Description string  `json:"subplan"`
	EstimateSec float64 `json:"estimate_sec"`
	SimSec      float64 `json:"sim_sec"`
}

// PhaseYield is one transformation's optimizer.Yield within one phase.
type PhaseYield struct {
	Phase          string `json:"phase"`
	Transformation string `json:"transformation"`
	Proposed       int    `json:"proposed"`
	Kept           int    `json:"kept"`
	Chosen         int    `json:"chosen"`
}

// cell is a memoized Run with the plan it ran.
type cell struct {
	Run
	plan *wf.Workflow
}

// Run plans abbr under v, estimates and simulates the plan, and memoizes the
// cell: however many figures list a (workload, variant), it is searched and
// simulated once per harness.
func (h *Harness) Run(abbr string, v Variant) (Run, error) {
	key := [2]string{abbr, v.Name}
	if c, ok := h.runs[key]; ok {
		return c.Run, nil
	}
	if v.Robustness != nil {
		return h.replay(abbr, v)
	}
	s := h.sample(abbr)
	if v.Fraction > 0 {
		s.fraction = v.Fraction
	}
	if v.SessionSeed {
		s.seed = h.cfg.Seed
	}
	wl, err := h.profiled(s)
	if err != nil {
		return Run{}, err
	}
	name := v.Planner
	if name == "" {
		name = Stubby.Planner
	}
	p, err := baselines.DefaultRegistry().New(name, wl.Cluster, h.cfg.Seed)
	if err != nil {
		return Run{}, err
	}
	if h.onSearch != nil {
		h.onSearch(abbr, v.Name)
	}
	r := Run{Workload: abbr, Variant: v.Name}
	var plan *wf.Workflow
	var res *optimizer.Result
	cb, costBased := p.(baselines.CostBased)
	opt := v.Options
	if v.Cached {
		opt.EstimateCache = h.estimates
	}
	var cat *catalog.Store
	if v.Reuse {
		var done func()
		stored := *wl
		if cat, stored.DFS, done, err = h.publishFamily(abbr); err != nil {
			return Run{}, err
		}
		defer done()
		opt.ReuseCatalog, wl = cat, &stored
	}
	t0 := time.Now()
	if costBased {
		if res, err = cb.Search(context.Background(), wl.Workflow, opt); err == nil {
			plan = res.Plan
		}
	} else {
		plan, err = p.Plan(wl.Workflow)
	}
	r.OptimizeMS = float64(time.Since(t0).Microseconds()) / 1000
	if err != nil {
		return Run{}, fmt.Errorf("%s on %s: %w", v.Name, abbr, err)
	}
	if costBased {
		r.EstimateSec = res.EstimatedCost
		r.WhatIfCalls, r.WhatIfComputed, r.FlowCards = res.WhatIfCalls, res.WhatIfComputed, res.FlowCards
		r.Yield = yieldByPhase(res.Units)
		if cat != nil {
			st := cat.Stats()
			r.ReusedSubplans, r.CatalogHits, r.CatalogMisses = res.ReusedSubplans, st.Hits, st.Misses
		}
	} else {
		est, err := whatif.New(wl.Cluster).Estimate(plan)
		if err != nil {
			return Run{}, fmt.Errorf("%s plan on %s: %w", v.Name, abbr, err)
		}
		r.EstimateSec = est.Makespan
	}
	r.Jobs = len(plan.Jobs)
	var rep *mrsim.RunReport
	if r.Plan, rep, err = h.simulate(s, wl, plan); err != nil {
		return Run{}, fmt.Errorf("%s on %s: %w", v.Name, abbr, err)
	}
	r.SimSec = rep.Makespan
	if opt.KeepSubplans && len(res.Units) > 0 {
		if r.Subplans, err = h.unitSubplans(s, wl, res.Units[0]); err != nil {
			return Run{}, fmt.Errorf("%s on %s: %w", v.Name, abbr, err)
		}
	}
	h.runs[key] = cell{r, plan}
	return r, nil
}

// replay runs a Robustness variant's cell: its workload's Stubby cell, with
// the replay's columns added. It searches and simulates nothing; OptimizeMS
// is the replay's own time.
func (h *Harness) replay(abbr string, v Variant) (Run, error) {
	if _, err := h.Run(abbr, Stubby); err != nil {
		return Run{}, err
	}
	wl, err := h.workload(abbr)
	if err != nil {
		return Run{}, err
	}
	c := h.runs[[2]string{abbr, Stubby.Name}]
	t0 := time.Now()
	rob, err := whatif.New(wl.Cluster).Robustness(context.Background(), c.plan, *v.Robustness)
	if err != nil {
		return Run{}, fmt.Errorf("%s on %s: %w", v.Name, abbr, err)
	}
	c.Variant, c.OptimizeMS = v.Name, float64(time.Since(t0).Microseconds())/1000
	if rob != nil {
		c.MeanSec, c.P95Sec, c.P99Sec, c.FailedOut = rob.Mean, rob.P95, rob.P99, rob.FailedOut
	}
	h.runs[[2]string{abbr, v.Name}] = c
	return c.Run, nil
}

// unitSubplans simulates each kept subplan of the search's first unit and
// reads from the run what the search's unit cost reads from the estimate.
// The first unit is planned on the input workflow, so its producers and
// consumers are the workflow's own jobs.
func (h *Harness) unitSubplans(s sample, wl *workloads.Workload, u optimizer.UnitReport) ([]SubplanCost, error) {
	unit := map[string]bool{}
	for _, id := range slices.Concat(u.Producers, u.Consumers) {
		for _, o := range wl.Workflow.Job(id).Origin {
			unit[o] = true
		}
	}
	var out []SubplanCost
	for _, sp := range u.Subplans {
		_, rep, err := h.simulate(s, wl, sp.Plan)
		if err != nil {
			return nil, fmt.Errorf("subplan %q: %w", sp.Description, err)
		}
		first, last := math.Inf(1), 0.0
		for _, j := range sp.Plan.Jobs {
			within := len(j.Origin) > 0
			for _, o := range j.Origin {
				within = within && unit[o]
			}
			if within {
				jr := rep.Job(j.ID)
				first, last = min(first, jr.Start), max(last, jr.End)
			}
		}
		out = append(out, SubplanCost{sp.Description, sp.Cost, last - first})
	}
	return out, nil
}

// planDigest is the first 16 hex digits of the SHA-256 of a plan's planio
// encoding: equal for byte-identical plans.
func planDigest(plan *wf.Workflow) (string, error) {
	doc, err := planio.Encode(plan)
	return fmt.Sprintf("%x", sha256.Sum256(doc))[:16], err
}

// yieldByPhase sums the units' yields within each structural phase.
func yieldByPhase(units []optimizer.UnitReport) []PhaseYield {
	var out []PhaseYield
	for _, phase := range []string{"vertical", "horizontal"} {
		var of optimizer.Result
		for _, u := range units {
			if u.Phase == phase {
				of.Units = append(of.Units, u)
			}
		}
		for _, y := range of.Yield() {
			if y.Proposed > 0 {
				out = append(out, PhaseYield{phase, y.Transformation, y.Proposed, y.Kept, y.Chosen})
			}
		}
	}
	return out
}

// Eval runs (or recalls) every cell of a figure, workloads outermost and
// variants in declared order, and returns beside each cell the anchor's cell
// on the same workload.
func (h *Harness) Eval(f Figure) (cells, anchors []Run, err error) {
	for _, abbr := range f.workloads() {
		anchor, err := h.Run(abbr, f.Anchor)
		if err != nil {
			return nil, nil, err
		}
		for _, v := range f.Variants {
			r, err := h.Run(abbr, v)
			if err != nil {
				return nil, nil, err
			}
			cells, anchors = append(cells, r), append(anchors, anchor)
		}
	}
	return cells, anchors, nil
}

// WriteFigure evaluates a figure and prints it, one row per cell; the
// robustness and reuse columns appear when some cell of the figure has them,
// and a cell's subplans follow the rows.
func (h *Harness) WriteFigure(w io.Writer, f Figure) error {
	cells, anchors, err := h.Eval(f)
	if err != nil {
		return err
	}
	robust, reuse := false, false
	for _, r := range cells {
		robust = robust || r.P99Sec > 0
		reuse = reuse || r.CatalogHits+r.CatalogMisses > 0
	}
	fmt.Fprintln(w, f.Title)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "Workflow\tVariant\tJobs\tEstimate\tSimulated\tEst. error\tvs %s\tOpt time\tOverhead\tWhat-if req\tComputed\tFlow cards", f.Anchor.Name)
	if robust {
		fmt.Fprint(tw, "\tMean\tp95\tp99\tFailed out")
	}
	if reuse {
		fmt.Fprint(tw, "\tReused\tCatalog hits")
	}
	fmt.Fprintln(tw)
	for i, r := range cells {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f s\t%.1f s\t%.1f%%\t%.2fx\t%.0f ms\t%.3f%%\t%d\t%d\t%d",
			r.Workload, r.Variant, r.Jobs, r.EstimateSec, r.SimSec,
			100*math.Abs(r.EstimateSec-r.SimSec)/r.SimSec, anchors[i].SimSec/r.SimSec,
			r.OptimizeMS, r.OptimizeMS/1000/anchors[i].SimSec*100, r.WhatIfCalls, r.WhatIfComputed, r.FlowCards)
		if robust {
			fmt.Fprintf(tw, "\t%.1f s\t%.1f s\t%.1f s\t%d", r.MeanSec, r.P95Sec, r.P99Sec, r.FailedOut)
		}
		if reuse {
			fmt.Fprintf(tw, "\t%d\t%d/%d", r.ReusedSubplans, r.CatalogHits, r.CatalogHits+r.CatalogMisses)
		}
		fmt.Fprintln(tw)
	}
	for _, r := range cells {
		if len(r.Subplans) > 0 {
			fmt.Fprintf(tw, "\n%s/%s, first unit's subplans (the unit's span)\nEstimate\tSimulated\tSubplan\n", r.Workload, r.Variant)
		}
		for _, sp := range r.Subplans {
			fmt.Fprintf(tw, "%.1f s\t%.1f s\t%s\n", sp.EstimateSec, sp.SimSec, sp.Description)
		}
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}
