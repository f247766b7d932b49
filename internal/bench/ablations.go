package bench

import (
	"fmt"
	"time"

	"github.com/stubby-mr/stubby/internal/optimizer"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/whatif"
	"github.com/stubby-mr/stubby/internal/workloads"
)

// Ablation drivers isolate the optimizer's design choices:
// the Vertical-before-Horizontal phase ordering (Section 4), the dynamic
// optimization-unit decomposition (Section 4.1), the use of RRS rather
// than simpler configuration search (Section 4.2), and the profile
// sampling fraction behind the information spectrum. Each driver runs
// optimizer variants that differ in exactly one knob and reports the
// resulting plan quality and optimization effort.

// AblationRun is one (workload, variant) measurement.
type AblationRun struct {
	Workload string
	// Variant names the optimizer configuration under test; the first
	// variant of each driver is Stubby's default and anchors Speedup.
	Variant string
	// Jobs is the optimized plan's job count.
	Jobs int
	// Makespan is the simulated running time of the optimized plan.
	Makespan float64
	// Speedup is the default variant's makespan over this one (>1 means
	// the default is slower — the ablated choice won).
	Speedup float64
	// OptimizeMS is the optimizer's real running time in milliseconds.
	OptimizeMS float64
}

// runVariants optimizes one workload under each (name, options) variant.
// The first variant anchors the speedup column.
func (h *Harness) runVariants(abbr string, variants []struct {
	name string
	opt  optimizer.Options
}) ([]AblationRun, error) {
	wl, err := h.workload(abbr)
	if err != nil {
		return nil, err
	}
	var out []AblationRun
	var anchor float64
	for i, v := range variants {
		t0 := time.Now()
		res, err := optimizer.New(wl.Cluster, v.opt).Optimize(wl.Workflow)
		optMS := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			return nil, fmt.Errorf("%s variant %q: %w", abbr, v.name, err)
		}
		makespan, err := runPlan(wl, res.Plan)
		if err != nil {
			return nil, fmt.Errorf("%s variant %q run: %w", abbr, v.name, err)
		}
		if i == 0 {
			anchor = makespan
		}
		out = append(out, AblationRun{
			Workload:   abbr,
			Variant:    v.name,
			Jobs:       len(res.Plan.Jobs),
			Makespan:   makespan,
			Speedup:    anchor / makespan,
			OptimizeMS: optMS,
		})
	}
	return out, nil
}

// AblationOrdering compares the paper's Vertical-before-Horizontal phase
// ordering against the reverse on the given workloads. The paper's
// argument (Section 4): horizontal packing first builds combined map-output
// keys that block later vertical packing, so reversing the order should
// never win and should lose on vertically-packable workflows.
func (h *Harness) AblationOrdering(abbrs []string) (map[string][]AblationRun, error) {
	variants := []struct {
		name string
		opt  optimizer.Options
	}{
		{"V-then-H", optimizer.Options{Seed: h.cfg.Seed}},
		{"H-then-V", optimizer.Options{Seed: h.cfg.Seed, HorizontalFirst: true}},
	}
	out := map[string][]AblationRun{}
	for _, abbr := range abbrs {
		rows, err := h.runVariants(abbr, variants)
		if err != nil {
			return nil, err
		}
		out[abbr] = rows
	}
	return out, nil
}

// AblationSearch compares configuration-search strategies under the same
// evaluation budget: RRS (the paper's choice), pure uniform random
// sampling, and no search at all (configurations as submitted).
func (h *Harness) AblationSearch(abbrs []string) (map[string][]AblationRun, error) {
	variants := []struct {
		name string
		opt  optimizer.Options
	}{
		{"RRS", optimizer.Options{Seed: h.cfg.Seed}},
		{"Random", optimizer.Options{Seed: h.cfg.Seed, ConfigSearch: optimizer.SearchRandom}},
		{"NoSearch", optimizer.Options{Seed: h.cfg.Seed, DisableConfigSearch: true}},
	}
	out := map[string][]AblationRun{}
	for _, abbr := range abbrs {
		rows, err := h.runVariants(abbr, variants)
		if err != nil {
			return nil, err
		}
		out[abbr] = rows
	}
	return out, nil
}

// AblationUnitScope compares the dynamic optimization-unit traversal
// against optimizing the whole workflow as one global unit. The global
// unit searches a strictly larger joint space per invocation, so it can
// only match or improve plan quality — at an optimization-time cost that
// grows with workflow size, which is the divide-and-conquer argument of
// Section 4.1.
func (h *Harness) AblationUnitScope(abbrs []string) (map[string][]AblationRun, error) {
	variants := []struct {
		name string
		opt  optimizer.Options
	}{
		{"DynamicUnits", optimizer.Options{Seed: h.cfg.Seed}},
		{"GlobalUnit", optimizer.Options{Seed: h.cfg.Seed, GlobalUnit: true, MaxSubplans: 256}},
	}
	out := map[string][]AblationRun{}
	for _, abbr := range abbrs {
		rows, err := h.runVariants(abbr, variants)
		if err != nil {
			return nil, err
		}
		out[abbr] = rows
	}
	return out, nil
}

// ProfileFractionRow measures one profiling sampling rate: how accurate
// the What-if estimate of the optimized plan is, and how good the chosen
// plan actually is, when profiles come from a fraction of the data.
type ProfileFractionRow struct {
	// Fraction is the profiled sample rate in (0, 1].
	Fraction float64
	// Estimated is the What-if makespan of the plan Stubby chose.
	Estimated float64
	// Actual is the simulated makespan of that plan.
	Actual float64
	// RelError is |Estimated-Actual|/Actual.
	RelError float64
	// Speedup is the unoptimized plan's makespan over the optimized one.
	Speedup float64
}

// AblationProfileFraction rebuilds the workload at each sampling fraction,
// profiles, optimizes, and reports estimate accuracy and plan quality —
// the information-spectrum trade-off between profiling cost and
// optimization fidelity (Sections 2.2 and 5).
func (h *Harness) AblationProfileFraction(abbr string, fractions []float64) ([]ProfileFractionRow, error) {
	var out []ProfileFractionRow
	for _, f := range fractions {
		wl, err := workloads.Build(abbr, workloads.Options{SizeFactor: h.cfg.SizeFactor, Seed: h.cfg.Seed})
		if err != nil {
			return nil, err
		}
		if err := profile.NewProfiler(wl.Cluster, f, h.cfg.Seed+17).Annotate(wl.Workflow, wl.DFS); err != nil {
			return nil, fmt.Errorf("profile %s at %.2f: %w", abbr, f, err)
		}
		base, err := runPlan(wl, wl.Workflow)
		if err != nil {
			return nil, err
		}
		res, err := optimizer.New(wl.Cluster, optimizer.Options{Seed: h.cfg.Seed}).Optimize(wl.Workflow)
		if err != nil {
			return nil, fmt.Errorf("optimize %s at %.2f: %w", abbr, f, err)
		}
		// Estimate against a clean estimator so per-run caches do not leak.
		est, err := whatif.New(wl.Cluster).Estimate(res.Plan)
		if err != nil {
			return nil, err
		}
		actual, err := runPlan(wl, res.Plan)
		if err != nil {
			return nil, err
		}
		relErr := est.Makespan - actual
		if relErr < 0 {
			relErr = -relErr
		}
		out = append(out, ProfileFractionRow{
			Fraction:  f,
			Estimated: est.Makespan,
			Actual:    actual,
			RelError:  relErr / actual,
			Speedup:   base / actual,
		})
	}
	return out, nil
}
