package stubby_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/stubby-mr/stubby"
)

// TestYieldAccounting: over the eight paper workloads, the per-transformation
// counts of every unit add up — each kept proposal is one enumerated subplan
// beside the incumbent (unless MaxSubplans cut the enumeration short), nothing
// is kept that was not proposed, and every step of the chosen subplan comes
// from a row that kept something and is counted as chosen.
func TestYieldAccounting(t *testing.T) {
	const maxSubplans = 64 // the optimizer's default
	for _, abbr := range stubby.Workloads() {
		wl := profiledWorkload(t, abbr, 0.1, 1)
		sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(1),
			stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 8}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Optimize(context.Background(), wl.Workflow)
		if err != nil {
			t.Fatalf("%s: %v", abbr, err)
		}
		steps := 0
		for i, u := range res.Units {
			kept, chosen := 0, 0
			for _, y := range u.Yield {
				if y.Kept > y.Proposed {
					t.Errorf("%s unit %d: %s kept %d of %d proposals", abbr, i, y.Transformation, y.Kept, y.Proposed)
				}
				kept += y.Kept
				chosen += y.Chosen
			}
			if len(u.Subplans) < maxSubplans && kept+1 != len(u.Subplans) {
				t.Errorf("%s unit %d: %d kept proposals but %d subplans", abbr, i, kept, len(u.Subplans))
			}
			desc := u.Subplans[u.ChosenIdx].Description
			if desc == "no structural change" {
				desc = ""
			}
			for _, step := range strings.Split(desc, "; ") {
				if step == "" {
					continue
				}
				chosen--
				steps++
				name, _, _ := strings.Cut(step, "(")
				found := false
				for _, y := range u.Yield {
					found = found || (y.Transformation == name && y.Kept > 0 && y.Chosen > 0)
				}
				if !found {
					t.Errorf("%s unit %d: chosen step %q names no row that kept and was chosen: %+v", abbr, i, step, u.Yield)
				}
			}
			if chosen != 0 {
				t.Errorf("%s unit %d: Chosen counts differ from the chosen subplan %q by %d", abbr, i, desc, chosen)
			}
		}
		total := 0
		for _, y := range res.Yield() {
			total += y.Chosen
		}
		if total != steps {
			t.Errorf("%s: Result.Yield sums %d chosen steps, the units took %d", abbr, total, steps)
		}
	}
}

// TestCostBasedSessionParity: starfish and mrshare are searches like
// Stubby's own, so a session running them returns the plan their Planner
// returns — byte-identical — with the search trace in the Result and the
// search's progress in the session's sink.
func TestCostBasedSessionParity(t *testing.T) {
	wl := profiledWorkload(t, "PJ", 0.1, 5)
	ctx := context.Background()
	for _, name := range []string{"starfish", "mrshare"} {
		obs := &sequenceObserver{}
		sess, err := stubby.NewSession(stubby.WithCluster(wl.Cluster), stubby.WithSeed(5),
			stubby.WithPlanner(name), stubby.WithObserver(obs))
		if err != nil {
			t.Fatal(err)
		}
		p, err := sess.Planner(name)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := p.Plan(wl.Workflow)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := sess.Optimize(ctx, wl.Workflow)
		if err != nil {
			t.Fatalf("%s session: %v", name, err)
		}
		if !bytes.Equal(exportBytes(t, direct), exportBytes(t, res.Plan)) {
			t.Errorf("%s: the session's plan differs from Planner.Plan's", name)
		}
		if len(res.Units) < 1 {
			t.Errorf("%s: session result carries no search trace", name)
		}
		units := 0
		for _, line := range obs.search {
			if strings.HasPrefix(line, "unit ") {
				units++
			}
		}
		if units != len(res.Units) {
			t.Errorf("%s: sink saw %d UnitStarted events for %d units", name, units, len(res.Units))
		}
	}
}
