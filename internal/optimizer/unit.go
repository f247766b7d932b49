package optimizer

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/stubby-mr/stubby/internal/event"
	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/wf"
)

// subplan is one structural alternative for a unit.
type subplan struct {
	plan  *wf.Workflow
	steps []string // transformation descriptions, in application order
	rows  []int    // the table row that proposed each step
}

// tunedSubplan is the outcome of one subplan's configuration search.
type tunedSubplan struct {
	plan     *wf.Workflow
	cost     float64
	fallback bool
	err      error
}

// optimizeUnit enumerates all structural subplans for the unit (Figure 10),
// searches configurations for each with RRS, and returns the plan with the
// lowest estimated cost. The per-subplan searches run on the optimizer's
// tuning workers; selection and progress events replay in enumeration
// order, so the chosen plan does not depend on the number of workers.
func (s *Stubby) optimizeUnit(ctx context.Context, plan *wf.Workflow, unit []string, ph phaseSpec, unitIdx int) (*wf.Workflow, *UnitReport, error) {
	unitOrigins := map[string]bool{}
	for _, id := range unit {
		for _, o := range plan.Job(id).Origin {
			unitOrigins[o] = true
		}
	}
	name := plan.Name // transformations never rename the workflow
	if emit := s.opt.Progress; emit != nil {
		emit(event.UnitStarted{Workflow: name, Phase: ph.name, Unit: unitIdx,
			Jobs: append([]string(nil), unit...)})
	}
	subplans, yield := s.enumerate(plan, unitOrigins, ph)
	tuned := s.tuneSubplans(ctx, subplans, unitOrigins, unitIdx)
	for _, tn := range tuned {
		if tn.err != nil {
			return nil, nil, tn.err
		}
	}
	report := &UnitReport{Phase: ph.name, Yield: yield}
	bestIdx, bestCost := -1, 0.0
	baselineFallback := false
	var bestPlan *wf.Workflow
	for i, sp := range subplans {
		tn := tuned[i]
		if i == 0 {
			baselineFallback = tn.fallback
		}
		rep := SubplanReport{
			Description: strings.Join(sp.steps, "; "),
			Cost:        tn.cost,
			Fallback:    tn.fallback,
		}
		if rep.Description == "" {
			rep.Description = "no structural change"
		}
		if s.opt.KeepSubplans {
			rep.Plan = tn.plan
		}
		report.Subplans = append(report.Subplans, rep)
		if emit := s.opt.Progress; emit != nil {
			emit(event.SubplanEnumerated{Workflow: name, Unit: unitIdx, Desc: rep.Description, Cost: tn.cost})
		}
		// Fallback (#jobs) costs are not comparable with time estimates:
		// only compare within the baseline's costing regime.
		if tn.fallback != baselineFallback {
			continue
		}
		// Hysteresis against estimator noise: a structural change must
		// predict a meaningful gain over the incumbent structure (i == 0)
		// to displace it.
		threshold := bestCost
		if bestIdx == 0 {
			threshold = bestCost * hysteresis
		}
		if bestIdx == -1 || tn.cost < threshold {
			bestIdx, bestCost, bestPlan = i, tn.cost, tn.plan
			if emit := s.opt.Progress; emit != nil {
				emit(event.BestCostImproved{Workflow: name, Unit: unitIdx, Desc: rep.Description, Cost: tn.cost})
			}
		}
	}
	if bestIdx == -1 {
		return nil, nil, fmt.Errorf("optimizer: no viable subplan for unit %v", unit)
	}
	report.ChosenIdx = bestIdx
	for _, r := range subplans[bestIdx].rows {
		yield[r].Chosen++
	}
	return bestPlan, report, nil
}

// tuneSubplans runs the configuration search for every enumerated subplan:
// one worker per estimator (at most one per subplan) takes the next subplan
// in enumeration order until none are left or a search has failed. A
// subplan no worker reached keeps a zero slot; since subplans are taken in
// order, every subplan before a failed one was tuned to completion, so the
// first error in slot order is the same at any number of workers.
// Per-subplan seeds derive from the subplan's structure, not from the
// worker, so results are too.
func (s *Stubby) tuneSubplans(ctx context.Context, subplans []subplan, unitOrigins map[string]bool, unitIdx int) []tunedSubplan {
	out := make([]tunedSubplan, len(subplans))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for _, est := range s.ests[:min(len(s.ests), len(subplans))] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(subplans) {
					return
				}
				plan, cost, fallback, err := s.tuneConfigs(ctx, est, subplans[i].plan, unitOrigins, subplanSeed(unitIdx, subplans[i].plan))
				out[i] = tunedSubplan{plan: plan, cost: cost, fallback: fallback, err: err}
				if err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// enumerate exhaustively applies the phase's structural transformations
// within the unit, collecting unique subplans (Section 4.2: "Stubby
// exhaustively applies all transformations, except the configuration
// transformation"). It also counts each table row's proposals and how many
// of them entered the enumeration.
func (s *Stubby) enumerate(plan *wf.Workflow, unitOrigins map[string]bool, ph phaseSpec) ([]subplan, []Yield) {
	yield := make([]Yield, len(s.table))
	for i, r := range s.table {
		yield[i].Transformation = r.Name()
	}
	seen := map[string]bool{signature(plan): true}
	queue := []subplan{{plan: plan}}
	var out []subplan
	for len(queue) > 0 && len(out) < s.opt.MaxSubplans {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, next := range s.neighbors(cur, unitOrigins, ph) {
			y := &yield[next.rows[len(next.rows)-1]]
			y.Proposed++
			sig := signature(next.plan)
			if seen[sig] {
				continue
			}
			seen[sig] = true
			// Defense in depth: a transformation bug must surface as a
			// skipped subplan, not as a broken chosen plan (a cyclic
			// proposal once slipped through costing unnoticed).
			if err := next.plan.Validate(); err != nil {
				continue
			}
			y.Kept++
			queue = append(queue, next)
		}
	}
	return out, yield
}

// neighbors generates all single-transformation successors of a subplan: the
// proposals of every table row taking part in the phase, in table order.
func (s *Stubby) neighbors(cur subplan, unitOrigins map[string]bool, ph phaseSpec) []subplan {
	var out []subplan
	unitJobs := jobsWithinOrigins(cur.plan, unitOrigins)
	for i, r := range s.table {
		if r.groups&ph.groups == 0 {
			continue
		}
		for _, prop := range r.Apply(cur.plan, unitJobs) {
			out = append(out, subplan{plan: prop.Plan,
				steps: append(slices.Clone(cur.steps), prop.Desc), rows: append(slices.Clone(cur.rows), i)})
		}
	}
	return out
}

// horizontalGroups proposes candidate job sets to pack: for every dataset
// read by two or more unit jobs, each subset of its readers (size >= 2),
// plus the set of all concurrently-runnable unit jobs.
func horizontalGroups(plan *wf.Workflow, unitJobs []string) [][]string {
	byInput := map[string][]string{}
	for _, id := range unitJobs {
		for _, in := range plan.Job(id).Inputs() {
			byInput[in] = append(byInput[in], id)
		}
	}
	var out [][]string
	seen := map[string]bool{}
	addGroup := func(g []string) {
		if len(g) < 2 {
			return
		}
		g = append([]string(nil), g...)
		sort.Strings(g)
		key := strings.Join(g, "|")
		if !seen[key] {
			seen[key] = true
			out = append(out, g)
		}
	}
	var inputs []string
	for in := range byInput {
		inputs = append(inputs, in)
	}
	sort.Strings(inputs)
	for _, in := range inputs {
		readers := byInput[in]
		if len(readers) < 2 {
			continue
		}
		// All subsets of size >= 2 (reader counts are small in practice).
		n := len(readers)
		if n > 5 {
			addGroup(readers) // cap combinatorics: pack all
			continue
		}
		for mask := 1; mask < 1<<n; mask++ {
			var g []string
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					g = append(g, readers[b])
				}
			}
			addGroup(g)
		}
	}
	if len(unitJobs) >= 2 && len(unitJobs) <= 5 {
		addGroup(unitJobs)
	}
	return out
}

// jobsWithinOrigins lists current jobs composed purely of unit originals.
func jobsWithinOrigins(plan *wf.Workflow, unitOrigins map[string]bool) []string {
	var out []string
	for _, j := range plan.Jobs {
		ok := true
		for _, o := range j.Origin {
			if !unitOrigins[o] {
				ok = false
				break
			}
		}
		if ok && len(j.Origin) > 0 {
			out = append(out, j.ID)
		}
	}
	return out
}

// signature canonically fingerprints a plan's structure: jobs (by sorted
// origin), their branch wiring, partition specs, and packing flags.
// Configurations are excluded — they are searched, not enumerated.
func signature(plan *wf.Workflow) string {
	var jobs []string
	for _, j := range plan.Jobs {
		var b strings.Builder
		origins := append([]string(nil), j.Origin...)
		sort.Strings(origins)
		b.WriteString(strings.Join(origins, "+"))
		b.WriteByte('{')
		var branches []string
		for _, br := range j.MapBranches {
			branches = append(branches, fmt.Sprintf("%d<%s", br.Tag, br.Input))
		}
		sort.Strings(branches)
		b.WriteString(strings.Join(branches, ","))
		b.WriteByte('|')
		var groups []string
		for _, g := range j.ReduceGroups {
			groups = append(groups, fmt.Sprintf("%d>%s:%s:%v:%v:%x:ms=%v",
				g.Tag, g.Output, g.Part.Type, g.Part.KeyFields, g.Part.SortFields,
				keyval.HashTuples(g.Part.SplitPoints), g.RunsMapSide))
		}
		sort.Strings(groups)
		b.WriteString(strings.Join(groups, ","))
		b.WriteByte('}')
		if j.AlignMapToInput {
			b.WriteString("@aligned")
		}
		if j.PinnedReducers {
			b.WriteString("@pinned")
		}
		jobs = append(jobs, b.String())
	}
	sort.Strings(jobs)
	return strings.Join(jobs, ";")
}

// subplanSeed derives a deterministic RRS seed from a subplan's structure.
func subplanSeed(unitIdx int, plan *wf.Workflow) int64 {
	h := fnv.New64a()
	h.Write([]byte(signature(plan)))
	return int64(h.Sum64()&0x7fffffffffffffff) ^ int64(unitIdx)
}
