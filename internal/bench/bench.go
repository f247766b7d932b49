// Package bench is the experiment harness behind the paper's evaluation
// (Section 7). The grid-shaped results — Figures 11, 12, 13 and 14, the
// design ablations and the estimate-cache table — are views of one memoized
// (workload × variant) table of Run cells (grid.go), declared once in
// Figures, printed by one renderer and committed with the evaluation's
// claims as BENCH_paper.json (ledger.go). Figure 14 is the one cell that
// keeps its first unit's subplans, each estimated and simulated. The
// optimizer's hot path is three of those figures: incremental against
// monolithic estimation and plan robustness, on the paper workloads and the
// deep pipelines of deep.go, and sub-plan reuse on the generated families of
// reusebench.go. Table 1 and Figure 5 are not grid-shaped and keep their own
// drivers (figures.go). cmd/stubby-bench and the repository's testing.B
// benchmarks drive it.
package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/profile"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/whatif"
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

// ProfilerSeed is the seed the harness profiles workloads under. It is not
// the seed Session.Profile uses (Seed itself), so the CLI and the figures see
// different samples of the same data; a Variant with SessionSeed set measures
// a cell under the session's spelling, and the ledger header records both.
func (c Config) ProfilerSeed() int64 { return c.Seed + 17 }

// sample identifies one profiled instance of a workload.
type sample struct {
	abbr     string
	fraction float64
	seed     int64
}

// sample is the harness's own sample of a workload. A family member is
// profiled under its family's seed: siblings share their prefix byte for
// byte, so one sampling seed gives the prefix the same annotations in every
// member, which is what makes their rooted fingerprints collide.
func (h *Harness) sample(abbr string) sample {
	s := sample{abbr, h.cfg.ProfileFraction, h.cfg.ProfilerSeed()}
	if seed, _, ok := familyMember(abbr); ok {
		s.seed = seed
	}
	return s
}

// simKey identifies one simulation: a plan, by digest, over a sample's data.
type simKey struct {
	sample
	plan string
}

// Harness runs the experiments. It is not safe for concurrent use.
type Harness struct {
	cfg       Config
	workloads map[sample]*workloads.Workload
	runs      map[[2]string]cell
	// sims memoizes Run's simulations: a run is a pure function of the key,
	// and Vertical's cells, the cached repeats and every Monolithic cell
	// re-choose a plan some other variant has already run.
	sims map[simKey]*mrsim.RunReport
	// estimates is the cache the Cached variants share, as an OptimizeAll
	// fan-out shares a session's. It is sized so the whole sweep stays
	// resident; the default capacity targets long-running services, where
	// bounding memory matters more than a perfect replay.
	estimates *whatif.Cache
	// onSearch, when set, is told of every search the harness actually
	// runs: each memo miss of Run.
	onSearch func(abbr, variant string)
}

// New builds a harness.
func New(cfg Config) *Harness {
	return &Harness{
		cfg:       cfg.withDefaults(),
		workloads: make(map[sample]*workloads.Workload),
		runs:      make(map[[2]string]cell),
		sims:      make(map[simKey]*mrsim.RunReport),
		estimates: whatif.NewCache(1 << 18),
	}
}

// workload returns a workload — paper, deep pipeline or family member —
// built and profiled under the harness's own sample (cached).
func (h *Harness) workload(abbr string) (*workloads.Workload, error) {
	return h.profiled(h.sample(abbr))
}

// profiled returns the workload built and profiled under the given sample
// (cached).
func (h *Harness) profiled(s sample) (*workloads.Workload, error) {
	if wl, ok := h.workloads[s]; ok {
		return wl, nil
	}
	var wl *workloads.Workload
	var err error
	if stages, deep := deepPipelineStages(s.abbr); deep {
		wl, err = buildDeepPipeline(stages, h.cfg.SizeFactor, h.cfg.Seed)
	} else if seed, member, ok := familyMember(s.abbr); ok {
		wl = buildFamilyMember(seed, member)
	} else {
		wl, err = workloads.Build(s.abbr, workloads.Options{SizeFactor: h.cfg.SizeFactor, Seed: h.cfg.Seed})
	}
	if err != nil {
		return nil, err
	}
	if err := profile.NewProfiler(wl.Cluster, s.fraction, s.seed).Annotate(wl.Workflow, wl.DFS); err != nil {
		return nil, fmt.Errorf("profile %s at %.2f: %w", s.abbr, s.fraction, err)
	}
	h.workloads[s] = wl
	return wl, nil
}

// runPlan executes a plan over a fresh copy of the workload's data.
func runPlan(wl *workloads.Workload, plan *wf.Workflow) (*mrsim.RunReport, error) {
	return mrsim.NewEngine(wl.Cluster, wl.DFS.Clone()).RunWorkflow(plan)
}

// simulate runs a plan over the workload built under sample s, once per
// (sample, plan) however many cells and subplans choose it, and returns the
// plan's digest with the run.
func (h *Harness) simulate(s sample, wl *workloads.Workload, plan *wf.Workflow) (string, *mrsim.RunReport, error) {
	digest, err := planDigest(plan)
	if err != nil {
		return "", nil, err
	}
	key := simKey{s, digest}
	if rep, ok := h.sims[key]; ok {
		return digest, rep, nil
	}
	rep, err := runPlan(wl, plan)
	if err != nil {
		return "", nil, fmt.Errorf("plan %s failed to run: %w", digest, err)
	}
	h.sims[key] = rep
	return digest, rep, nil
}

// WriteJSON writes a report (a Ledger), indented, to path.
func WriteJSON(path string, report any) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadJSON reads a report previously written by WriteJSON (a committed
// BENCH_*.json baseline) into report.
func ReadJSON(path string, report any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, report); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
