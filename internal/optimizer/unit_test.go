package optimizer

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/stubbyerr"
	"github.com/stubby-mr/stubby/internal/wf"
)

// sumChain builds src -> A -> B -> C, three identical summing jobs.
func sumChain() *wf.Workflow {
	w := &wf.Workflow{
		Name:     "sumchain",
		Datasets: []*wf.Dataset{{ID: "src", Base: true, KeyFields: []string{"k"}, ValueFields: []string{"x"}}},
	}
	in := "src"
	for _, id := range []string{"A", "B", "C"} {
		out := "d" + id
		w.Jobs = append(w.Jobs, &wf.Job{
			ID: id, Config: wf.DefaultConfig(), Origin: []string{id},
			MapBranches: []wf.MapBranch{{
				Tag: 0, Input: in,
				Stages: []wf.Stage{wf.MapStage("M_"+id, func(k, v keyval.Tuple, emit wf.Emit) { emit(k, v) }, 20e-6)},
				KeyIn:  []string{"k"}, ValIn: []string{"x"},
				KeyOut: []string{"k"}, ValOut: []string{"x"},
			}},
			ReduceGroups: []wf.ReduceGroup{{
				Tag: 0, Output: out,
				Stages: []wf.Stage{wf.ReduceStage("R_"+id, sumFloat, nil, 0.5e-6)},
				KeyIn:  []string{"k"}, ValIn: []string{"x"},
				KeyOut: []string{"k"}, ValOut: []string{"x"},
			}},
		})
		w.Datasets = append(w.Datasets, &wf.Dataset{ID: out, KeyFields: []string{"k"}, ValueFields: []string{"x"}})
		in = out
	}
	return w
}

// originThief breaks the Origin contract: it unions the unit jobs' origins
// into the unit's first job, and shrinks that job's profiled sizes so the
// proposal wins on cost.
type originThief struct{}

func (originThief) Name() string { return "origin-thief" }

func (originThief) Apply(plan *wf.Workflow, unitJobs []string) []Proposal {
	p := plan.Clone()
	first := p.Job(unitJobs[0])
	for _, id := range unitJobs[1:] {
		for _, o := range p.Job(id).Origin {
			if !slices.Contains(first.Origin, o) {
				first.Origin = append(first.Origin, o)
			}
		}
	}
	prof := first.Profile.Clone()
	for _, side := range []map[int]*wf.PipelineProfile{prof.MapSide, prof.ReduceSide} {
		for tag, pp := range side {
			shrunk := *pp
			shrunk.CPUPerRecord /= 2
			shrunk.Selectivity /= 2
			shrunk.OutBytesPerRecord /= 2
			side[tag] = &shrunk
		}
	}
	first.Profile = prof
	return []Proposal{{Plan: p, Desc: "steal"}}
}

// TestTraversalBoundStopsCyclingFrontier: once A carries the origins of B
// and C, the frontier cycles {A,B} -> {A,C} forever. The traversal's unit
// bound ends the phase, and the optimizer still returns a valid plan.
func TestTraversalBoundStopsCyclingFrontier(t *testing.T) {
	w, _, cl := customFixture(t, sumChain())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := New(cl, Options{Seed: 1, Groups: GroupHorizontal, DisablePartition: true, DisableConfigSearch: true,
		Custom: []Transformation{originThief{}}}).OptimizeContext(ctx, w)
	if err != nil {
		t.Fatalf("cycling frontier: %v", err)
	}
	if err := res.Plan.Validate(); err != nil {
		t.Fatalf("plan: %v", err)
	}
	if bound := len(w.Jobs) + 4; len(res.Units) > bound {
		t.Errorf("%d units in one phase, bound %d", len(res.Units), bound)
	}
	if got := res.Plan.Job("A").Origin; len(got) != 3 {
		t.Errorf("A's origins = %v: the proposal never won, so the frontier never cycled", got)
	}
}

// profileThief proposes the plan with the unit's first job pinned (so the
// proposal is a distinct subplan) and its map profile dropped, so estimating
// the proposal fails at that job.
type profileThief struct{}

func (profileThief) Name() string { return "profile-thief" }

func (profileThief) Apply(plan *wf.Workflow, unitJobs []string) []Proposal {
	p := plan.Clone()
	j := p.Job(unitJobs[0])
	if j.PinnedReducers {
		return nil
	}
	j.PinnedReducers = true
	j.Profile = j.Profile.Clone()
	j.Profile.MapSide, j.Profile.MapSideByInput = nil, nil
	return []Proposal{{Plan: p, Desc: "unprofiled"}}
}

// TestFailedSubplanSearch: one subplan's search fails while its siblings'
// succeed. The unit returns that search's error at any number of tuning
// workers, and no worker outlives the call.
func TestFailedSubplanSearch(t *testing.T) {
	w, _, cl := annotated(t, true, genD4(3000, 9))
	before := runtime.NumGoroutine()
	var msgs []string
	for _, p := range []int{1, 4} {
		_, err := New(cl, Options{Seed: 1, RRSEvals: 8, Parallelism: p,
			Custom: []Transformation{profileThief{}}}).Optimize(w)
		var se *stubbyerr.Error
		if !errors.As(err, &se) || se.Op != "whatif" {
			t.Fatalf("P=%d: error %v, want the failed subplan's What-if error", p, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("P=1 error %q, P=4 error %q", msgs[0], msgs[1])
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the failed searches, %d before", n, before)
	}
}
