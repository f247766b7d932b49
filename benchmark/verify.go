package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"github.com/stubby-mr/stubby/internal/gen"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/wf"
)

// verifier checks returned plans against the unoptimized input plan: the
// reference is always the input workflow's own execution, never the
// optimizer's output.
type verifier struct {
	subjects map[string]*gen.Subject
	refs     map[string]gen.Outputs
	inputSec map[string]float64 // simulated makespan of the input plan
	// speedups caches the verdict of each distinct plan by digest, so a
	// plan returned many times is executed once and its bytes are not kept.
	speedups map[[sha256.Size]byte]float64
	// runInputMS / runOptimizedMS are the wall times of the mrsim
	// executions verification made (the mrsim.* layer metrics).
	runInputMS, runOptimizedMS []float64
}

func newVerifier(ins []*input) *verifier {
	v := &verifier{
		subjects: map[string]*gen.Subject{},
		refs:     map[string]gen.Outputs{},
		inputSec: map[string]float64{},
		speedups: map[[sha256.Size]byte]float64{},
	}
	for _, in := range ins {
		v.subjects[in.abbr] = &gen.Subject{
			Name:     in.abbr,
			Workflow: in.wl.Workflow,
			DFS:      in.wl.DFS,
			Cluster:  in.wl.Cluster,
			// Several workflows sum genuine floating point; combiner and
			// configuration changes reassociate those sums. Integer and
			// string fields still compare exactly.
			FloatTolerance: 1e-9,
		}
	}
	return v
}

// exportPlan renders a plan as its canonical planio document: the identity
// under which plans are deduplicated and compared byte for byte.
func exportPlan(plan *wf.Workflow) ([]byte, error) {
	if plan == nil {
		return nil, fmt.Errorf("nil plan")
	}
	return planio.Encode(plan)
}

// digest is a returned plan's identity: its workflow and exported bytes.
func digest(in *input, doc []byte) [sha256.Size]byte {
	return sha256.Sum256(append([]byte(in.abbr+"\x00"), doc...))
}

// check validates one returned plan, executes it on mrsim over a clone of
// the workflow's DFS, compares every sink dataset tuple for tuple with the
// input plan's, and returns simulated makespan(input) / makespan(plan).
func (v *verifier) check(in *input, key [sha256.Size]byte, doc []byte) (float64, error) {
	if s, ok := v.speedups[key]; ok {
		return s, nil
	}
	s := v.subjects[in.abbr]
	if _, ok := v.refs[in.abbr]; !ok {
		t0 := time.Now()
		ref, rep, err := s.Run(in.wl.Workflow)
		if err != nil {
			return 0, fmt.Errorf("input plan failed to execute: %w", err)
		}
		v.runInputMS = append(v.runInputMS, ms(time.Since(t0)))
		v.refs[in.abbr], v.inputSec[in.abbr] = ref, rep.Makespan
	}
	// Plans cross the wire structure-only; bind the stage functions back
	// through the input workflow's own library before executing.
	reg := planio.NewRegistry()
	reg.RegisterWorkflow(in.wl.Workflow)
	plan, err := planio.Decode(doc, reg)
	if err != nil {
		return 0, fmt.Errorf("returned plan does not bind to the input's functions: %w", err)
	}
	t0 := time.Now()
	rep, err := runPlan(s, plan, v.refs[in.abbr])
	if err != nil {
		return 0, err
	}
	v.runOptimizedMS = append(v.runOptimizedMS, ms(time.Since(t0)))
	if rep <= 0 {
		return 0, fmt.Errorf("returned plan has makespan %g", rep)
	}
	speedup := v.inputSec[in.abbr] / rep
	v.speedups[key] = speedup
	return speedup, nil
}

// runPlan is gen.Subject.CheckPlan keeping the run report's makespan.
func runPlan(s *gen.Subject, plan *wf.Workflow, ref gen.Outputs) (float64, error) {
	if err := plan.Validate(); err != nil {
		return 0, fmt.Errorf("plan invalid: %w", err)
	}
	got, rep, err := s.Run(plan)
	if err != nil {
		return 0, fmt.Errorf("plan failed to execute: %w", err)
	}
	for id, want := range ref {
		if d := mrsim.DiffPairs(want, got[id], s.FloatTolerance); d != "" {
			return 0, fmt.Errorf("sink %s diverges from the input plan's output: %s", id, d)
		}
	}
	return rep.Makespan, nil
}
