package gen

import (
	"strings"
	"testing"

	"github.com/stubby-mr/stubby/internal/keyval"
	"github.com/stubby-mr/stubby/internal/wf"
)

// The oracle must not be vacuous: a plan that actually computes something
// different has to be flagged, and the failure message must carry the
// reproduction seed and the offending plan's DOT (the acceptance contract
// for every suite built on the oracle).

func brokenPlan(t *testing.T, c *Case) (*wf.Workflow, string) {
	t.Helper()
	plan := c.Workflow.Clone()
	for _, j := range plan.Jobs {
		for bi := range j.MapBranches {
			b := &j.MapBranches[bi]
			for si := range b.Stages {
				st := &b.Stages[si]
				if st.Kind != wf.MapKind {
					continue
				}
				// Wrap the map function to drop every record whose first key
				// field hashes odd — a subtle, deterministic corruption.
				inner := st.Map
				st.Map = func(k, v keyval.Tuple, emit wf.Emit) {
					inner(k, v, func(ok, ov keyval.Tuple) {
						if keyval.Hash(ok, nil)%2 == 0 {
							emit(ok, ov)
						}
					})
				}
				return plan, j.ID
			}
		}
	}
	t.Fatal("no map stage to corrupt")
	return nil, ""
}

func TestOracleCatchesCorruptedPlan(t *testing.T) {
	c := Generate(3, Options{})
	s := c.Subject()
	ref, err := s.Reference()
	if err != nil {
		t.Fatal(err)
	}
	plan, jobID := brokenPlan(t, c)
	err = s.CheckPlan(ref, "corrupted", plan)
	if err == nil {
		t.Fatalf("oracle accepted a plan with a corrupted map stage in %s", jobID)
	}
	msg := err.Error()
	if !strings.Contains(msg, "seed 3\n") {
		t.Errorf("failure message lacks the reproducing seed: %s", msg)
	}
	if !strings.Contains(msg, "digraph") {
		t.Errorf("failure message lacks the plan DOT: %s", msg)
	}
	if !strings.Contains(msg, "diverges") && !strings.Contains(msg, "failed to execute") {
		t.Errorf("failure message does not describe the divergence: %s", msg)
	}
}

func TestOracleRejectsInvalidPlan(t *testing.T) {
	c := Generate(4, Options{})
	s := c.Subject()
	ref, err := s.Reference()
	if err != nil {
		t.Fatal(err)
	}
	bad := c.Workflow.Clone()
	bad.Jobs[0].MapBranches = nil // structurally invalid
	if err := s.CheckPlan(ref, "invalid", bad); err == nil {
		t.Fatal("oracle accepted a structurally invalid plan")
	}
	if err := s.CheckPlan(ref, "nil", nil); err == nil {
		t.Fatal("oracle accepted a nil plan")
	}
}

// TestOracleDistinguishesLabelFromPayload: tie labels are forgiven only
// where the case declares them.
func TestOracleLabelAwareness(t *testing.T) {
	var c *Case
	var sink string
	// Find a generated case with a top-K sink (rank key registered as label).
	for seed := int64(1); seed <= 60; seed++ {
		cand := Generate(seed, Options{})
		for id, spec := range cand.Canon {
			if len(spec.LabelKeyFields) > 0 {
				c, sink = cand, id
				break
			}
		}
		if c != nil {
			break
		}
	}
	if c == nil {
		t.Fatal("no generated case with a labeled sink in 60 seeds")
	}
	s := c.Subject()
	ref, err := s.Reference()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref[sink]) == 0 {
		t.Skipf("labeled sink %s is empty for this seed", sink)
	}
	// The canonical form of a labeled sink must have cleared the label.
	if got := ref[sink][0].Key[0]; got != nil {
		t.Errorf("label key field not cleared in canonical output: %v", got)
	}
}
