// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 7). Each driver returns the
// rows/series the paper reports; the cmd/stubby-bench binary and the
// repository's testing.B benchmarks print them.
package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/stubby-mr/stubby/internal/baselines"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// Config tunes the harness.
type Config struct {
	// SizeFactor scales workload record counts (default 0.25: quick runs
	// with paper-scale virtual sizes).
	SizeFactor float64
	// Seed drives generators, sampling, and search.
	Seed int64
	// ProfileFraction is the sampling rate for profile annotations.
	ProfileFraction float64
}

func (c Config) withDefaults() Config {
	if c.SizeFactor <= 0 {
		c.SizeFactor = 0.25
	}
	if c.ProfileFraction <= 0 {
		c.ProfileFraction = 0.5
	}
	return c
}

// prepared caches a built and profiled workload.
type prepared struct {
	wl *workloads.Workload
}

// Harness runs the experiments.
type Harness struct {
	cfg   Config
	cache map[string]*prepared
}

// New builds a harness.
func New(cfg Config) *Harness {
	return &Harness{cfg: cfg.withDefaults(), cache: make(map[string]*prepared)}
}

// workload returns a built, profiled workload (cached).
func (h *Harness) workload(abbr string) (*workloads.Workload, error) {
	if p, ok := h.cache[abbr]; ok {
		return p.wl, nil
	}
	wl, err := workloads.Build(abbr, workloads.Options{SizeFactor: h.cfg.SizeFactor, Seed: h.cfg.Seed})
	if err != nil {
		return nil, err
	}
	prof := profile.NewProfiler(wl.Cluster, h.cfg.ProfileFraction, h.cfg.Seed+17)
	if err := prof.Annotate(wl.Workflow, wl.DFS); err != nil {
		return nil, err
	}
	h.cache[abbr] = &prepared{wl: wl}
	return wl, nil
}

// runPlan executes a plan over a fresh copy of the workload's data and
// returns the simulated makespan.
func runPlan(wl *workloads.Workload, plan *wf.Workflow) (float64, error) {
	rep, err := mrsim.NewEngine(wl.Cluster, wl.DFS.Clone()).RunWorkflow(plan)
	if err != nil {
		return 0, err
	}
	return rep.Makespan, nil
}

// PlannerRun is one (planner, workload) measurement.
type PlannerRun struct {
	Planner  string
	Workload string
	// Jobs is the optimized plan's job count.
	Jobs int
	// Makespan is the simulated running time of the optimized plan.
	Makespan float64
	// Speedup is Baseline makespan over this makespan.
	Speedup float64
	// OptimizeMS is the planner's own (real) running time.
	OptimizeMS float64
}

// planners resolves the comparator set for a figure through the shared
// planner registry (names are case-insensitive).
func (h *Harness) planners(wl *workloads.Workload, which []string) ([]baselines.Planner, error) {
	reg := baselines.DefaultRegistry()
	out := make([]baselines.Planner, 0, len(which))
	for _, name := range which {
		p, err := reg.New(name, wl.Cluster, h.cfg.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ComparePlanners measures the given planners on one workload, reporting
// speedups over the Baseline planner.
func (h *Harness) ComparePlanners(abbr string, names []string) ([]PlannerRun, error) {
	wl, err := h.workload(abbr)
	if err != nil {
		return nil, err
	}
	base := baselines.Baseline{Cluster: wl.Cluster}
	basePlan, err := base.Plan(wl.Workflow)
	if err != nil {
		return nil, err
	}
	baseTime, err := runPlan(wl, basePlan)
	if err != nil {
		return nil, fmt.Errorf("baseline run on %s: %w", abbr, err)
	}
	planners, err := h.planners(wl, names)
	if err != nil {
		return nil, err
	}
	var out []PlannerRun
	for _, p := range planners {
		t0 := time.Now()
		plan, err := p.Plan(wl.Workflow)
		optMS := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", p.Name(), abbr, err)
		}
		makespan, err := runPlan(wl, plan)
		if err != nil {
			return nil, fmt.Errorf("%s plan on %s failed to run: %w", p.Name(), abbr, err)
		}
		out = append(out, PlannerRun{
			Planner:    p.Name(),
			Workload:   abbr,
			Jobs:       len(plan.Jobs),
			Makespan:   makespan,
			Speedup:    baseTime / makespan,
			OptimizeMS: optMS,
		})
	}
	return out, nil
}

// FormatTable renders rows as an aligned text table.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
