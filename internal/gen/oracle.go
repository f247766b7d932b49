package gen

import (
	"fmt"
	"strings"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/wf"
)

// Subject is anything the equivalence oracle can judge plans against: a
// reference workflow with its materialized inputs and cluster. Generated
// cases provide one via Case.Subject; the paper workloads adapt through
// the same struct.
type Subject struct {
	// Name labels the subject in failure messages.
	Name string
	// Seed, when non-zero, is printed in failure messages: Generate(Seed,
	// opts) with the caller's options rebuilds the case, and go test's
	// failing subtest name reruns it.
	Seed int64
	// Workflow is the reference (identity) plan defining the semantics.
	Workflow *wf.Workflow
	// DFS holds the base data; runs clone it, so it is never mutated.
	DFS *mrsim.DFS
	// Cluster executes the runs.
	Cluster *mrsim.Cluster
	// Canon maps sink dataset IDs to canonicalization specs; missing
	// entries use the zero spec (exact comparison).
	Canon map[string]mrsim.CanonSpec
	// FloatTolerance is the relative tolerance for numeric fields
	// (0 = exact). Generated cases keep aggregation integer-exact and use
	// 0; workflows that reassociate genuine floating point (some paper
	// workloads under combiner/config changes) set a tiny tolerance.
	FloatTolerance float64
	// Fault, when non-nil, injects task failures, stragglers, heterogeneous
	// node speeds, and speculative re-execution into every Run (chaos mode).
	// Perturbation moves task timings, never data: sink outputs must stay
	// tuple-for-tuple identical to the fault-free reference.
	Fault *mrsim.FaultModel
}

// Subject adapts the case for the oracle.
func (c *Case) Subject() *Subject {
	return &Subject{
		Name:     c.Workflow.Name,
		Seed:     c.Seed,
		Workflow: c.Workflow,
		DFS:      c.DFS,
		Cluster:  c.Cluster,
		Canon:    c.Canon,
	}
}

// Outputs holds the canonicalized content of every sink dataset.
type Outputs map[string][]keyval.Pair

// sinkIDs are the reference workflow's result datasets — the datasets
// every semantics-preserving plan must still write, with the same content.
func (s *Subject) sinkIDs() []string {
	var out []string
	for _, d := range s.Workflow.SinkDatasets() {
		out = append(out, d.ID)
	}
	return out
}

// Run executes a plan over a clone of the subject's base data and returns
// the canonicalized sink outputs.
func (s *Subject) Run(plan *wf.Workflow) (Outputs, *mrsim.RunReport, error) {
	dfs := s.DFS.Clone()
	eng := mrsim.NewEngine(s.Cluster, dfs)
	eng.Fault = s.Fault
	rep, err := eng.RunWorkflow(plan)
	if err != nil {
		return nil, nil, err
	}
	outs := Outputs{}
	for _, id := range s.sinkIDs() {
		stored, ok := dfs.Get(id)
		if !ok {
			return nil, nil, fmt.Errorf("sink dataset %q was not materialized", id)
		}
		outs[id] = stored.CanonicalOutput(s.Canon[id])
	}
	return outs, rep, nil
}

// Reference runs the subject's own workflow — the identity plan every
// optimized plan is compared against.
func (s *Subject) Reference() (Outputs, error) {
	outs, _, err := s.Run(s.Workflow)
	if err != nil {
		return nil, fmt.Errorf("gen: %s: reference run failed: %w", s.Name, err)
	}
	return outs, nil
}

// CheckPlan is the semantic-equivalence oracle: it validates the candidate
// plan, executes it, and compares every sink's canonicalized output
// tuple-for-tuple against the reference. A non-nil error describes the
// divergence and embeds everything needed to reproduce it: the generator
// seed and the DOT rendering of the offending plan.
func (s *Subject) CheckPlan(ref Outputs, desc string, plan *wf.Workflow) error {
	if plan == nil {
		return s.fail(desc, plan, "planner returned a nil plan")
	}
	if err := plan.Validate(); err != nil {
		return s.fail(desc, plan, fmt.Sprintf("plan invalid: %v", err))
	}
	got, _, err := s.Run(plan)
	if err != nil {
		return s.fail(desc, plan, fmt.Sprintf("plan failed to execute: %v", err))
	}
	for _, id := range s.sinkIDs() {
		if d := mrsim.DiffPairs(ref[id], got[id], s.FloatTolerance); d != "" {
			return s.fail(desc, plan, fmt.Sprintf("sink %s diverges from reference: %s", id, d))
		}
	}
	return nil
}

// fail formats an oracle failure with the reproduction seed and plan DOT.
func (s *Subject) fail(desc string, plan *wf.Workflow, msg string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "gen: %s: plan %q: %s\n", s.Name, desc, msg)
	if s.Seed != 0 {
		fmt.Fprintf(&b, "seed %d\n", s.Seed)
	}
	if s.Fault != nil {
		fmt.Fprintf(&b, "fault model active: fault seed=%d failProb=%g retries=%d stragglerProb=%g sigma=%g speculative=%v classes=%d\n",
			s.Fault.Seed, s.Fault.TaskFailureProb, s.Fault.MaxRetries,
			s.Fault.StragglerProb, s.Fault.StragglerSigma, s.Fault.Speculative, len(s.Fault.NodeClasses))
	}
	if plan != nil {
		fmt.Fprintf(&b, "offending plan (DOT):\n%s", plan.DOT())
	}
	return fmt.Errorf("%s", b.String())
}
