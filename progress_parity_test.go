package stubby_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/gen"
)

// searchLine renders one search event; other event types render as "".
func searchLine(ev stubby.Event) string {
	switch e := ev.(type) {
	case stubby.UnitStartedEvent:
		return fmt.Sprintf("unit %s %s %d %v", e.Workflow, e.Phase, e.Unit, e.Jobs)
	case stubby.SubplanEnumeratedEvent:
		return fmt.Sprintf("subplan %s %d %q %v", e.Workflow, e.Unit, e.Desc, e.Cost)
	case stubby.BestCostImprovedEvent:
		return fmt.Sprintf("best %s %d %q %v", e.Workflow, e.Unit, e.Desc, e.Cost)
	}
	return ""
}

// sequenceObserver records, through the public Observer face, the search
// events it is shown (as searchLine renders them) and the cache reports.
type sequenceObserver struct {
	stubby.NopObserver
	mu     sync.Mutex
	search []string
	cache  []stubby.CacheReportEvent
}

func (o *sequenceObserver) add(ev stubby.Event) {
	o.mu.Lock()
	o.search = append(o.search, searchLine(ev))
	o.mu.Unlock()
}

// take returns the search events recorded so far and forgets them.
func (o *sequenceObserver) take() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := o.search
	o.search = nil
	return out
}

func (o *sequenceObserver) UnitStarted(w, phase string, unit int, jobs []string) {
	o.add(stubby.UnitStartedEvent{Workflow: w, Phase: phase, Unit: unit, Jobs: jobs})
}

func (o *sequenceObserver) SubplanEnumerated(w string, unit int, desc string, cost float64) {
	o.add(stubby.SubplanEnumeratedEvent{Workflow: w, Unit: unit, Desc: desc, Cost: cost})
}

func (o *sequenceObserver) BestCostImproved(w string, unit int, desc string, cost float64) {
	o.add(stubby.BestCostImprovedEvent{Workflow: w, Unit: unit, Desc: desc, Cost: cost})
}

func (o *sequenceObserver) EstimateCacheReport(w string, st stubby.EstimateCacheStats) {
	o.mu.Lock()
	o.cache = append(o.cache, stubby.CacheReportEvent{Workflow: w, Stats: st})
	o.mu.Unlock()
}

// TestProgressChannelParity: there is one progress channel, so a multi-unit
// search reports the same event sequence whichever way it is watched — (a)
// a WithObserver observer under Session.Optimize, (b) the same kind of
// observer under Submit, (c) the handle's own event stream — and Optimize
// delivers the same CacheReportEvent the handle publishes. Each side gets a
// fresh session and a fresh estimate cache, and the search is serial, so
// the cache's counters are a function of the search alone.
func TestProgressChannelParity(t *testing.T) {
	wl := profiledWorkload(t, "BR", 0.1, 1)
	ctx := context.Background()
	session := func(obs stubby.Observer) *stubby.Session {
		t.Helper()
		sess, err := stubby.NewSession(
			stubby.WithCluster(wl.Cluster),
			stubby.WithSeed(1),
			stubby.WithParallelism(1),
			stubby.WithObserver(obs),
			stubby.WithEstimateCache(stubby.NewEstimateCache(0)),
			stubby.WithOptimizerOptions(stubby.Options{RRSEvals: 12}),
		)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}

	direct := &sequenceObserver{}
	if _, err := session(direct).Optimize(ctx, wl.Workflow); err != nil {
		t.Fatal(err)
	}

	queued := &sequenceObserver{}
	sess := session(queued)
	defer sess.Close(ctx)
	h, err := sess.Submit(ctx, stubby.OptimizeRequest{Workflow: wl.Workflow})
	if err != nil {
		t.Fatal(err)
	}
	var stream []string
	var streamCache []stubby.CacheReportEvent
	for ev := range h.Events(ctx) {
		if line := searchLine(ev); line != "" {
			if len(streamCache) > 0 {
				t.Fatalf("search event after the cache report: %s", line)
			}
			stream = append(stream, line)
		}
		if c, ok := ev.(stubby.CacheReportEvent); ok {
			streamCache = append(streamCache, c)
		}
	}
	if _, err := h.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	units := 0
	for _, line := range direct.search {
		if line[:5] == "unit " {
			units++
		}
	}
	if units < 2 {
		t.Fatalf("want a multi-unit search, got %d units in %d events", units, len(direct.search))
	}
	if !reflect.DeepEqual(direct.search, queued.search) {
		t.Errorf("observer under Optimize saw %d search events, under Submit %d, or they differ",
			len(direct.search), len(queued.search))
	}
	if !reflect.DeepEqual(direct.search, stream) {
		t.Errorf("observer under Optimize saw %d search events, the handle's stream has %d, or they differ",
			len(direct.search), len(stream))
	}
	if p := h.Progress(); p.Units != units {
		t.Errorf("handle counted %d units, the stream has %d", p.Units, units)
	}
	if len(streamCache) != 1 || streamCache[0].Stats.Lookups() == 0 {
		t.Fatalf("handle published cache reports %+v, want one with lookups", streamCache)
	}
	if !reflect.DeepEqual(direct.cache, streamCache) {
		t.Errorf("Optimize delivered cache reports %+v, the handle published %+v", direct.cache, streamCache)
	}
	if !reflect.DeepEqual(queued.cache, streamCache) {
		t.Errorf("Submit's observer got cache reports %+v, the handle published %+v", queued.cache, streamCache)
	}
}

// traceLines renders a result's unit trace as the UnitStarted and
// SubplanEnumerated events its search emitted, units numbered from 0.
func traceLines(name string, res *stubby.Result) []string {
	var out []string
	for i, u := range res.Units {
		jobs := append(append([]string{}, u.Producers...), u.Consumers...)
		out = append(out, searchLine(stubby.UnitStartedEvent{Workflow: name, Phase: u.Phase, Unit: i, Jobs: jobs}))
		for _, sp := range u.Subplans {
			out = append(out, searchLine(stubby.SubplanEnumeratedEvent{Workflow: name, Unit: i, Desc: sp.Description, Cost: sp.Cost}))
		}
	}
	return out
}

// TestReuseProgressStream pins what the progress channel shows under a reuse
// catalog. The search from the bare plan comes first, event for event the
// search without the catalog. When the reuse pre-pass rewrote the plan, the
// search from the rewritten plan follows, its units numbered from 0 again.
// Result.Units is that second search when the result reuses a sub-plan, and
// the first search otherwise. The whole sweep must show both outcomes of a
// second search: adopted (family 1) and declined because it ended costlier
// (F2M2).
func TestReuseProgressStream(t *testing.T) {
	obs := &sequenceObserver{}
	members, adopted, declined := 0, 0, 0
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("family%d", seed), func(t *testing.T) {
			optimizeFamily(t, seed, func(t *testing.T, c *gen.Case, _ *stubby.DFS, with, without *stubby.Result) {
				members++
				var stream []string
				for _, line := range obs.take() {
					if !strings.HasPrefix(line, "best ") {
						stream = append(stream, line)
					}
				}
				name := c.Workflow.Name
				bare := traceLines(name, without)
				if len(stream) < len(bare) || !reflect.DeepEqual(stream[:len(bare)], bare) {
					t.Fatalf("the stream does not open with the catalog-less search (%d events, want %d first)",
						len(stream), len(bare))
				}
				second := stream[len(bare):]
				if with.ReusedSubplans > 0 {
					adopted++
					if got := traceLines(name, with); !reflect.DeepEqual(second, got) {
						t.Errorf("the second search streamed %d events, Result.Units traces %d, or they differ",
							len(second), len(got))
					}
					return
				}
				if !reflect.DeepEqual(traceLines(name, with), bare) {
					t.Error("reused nothing, yet Result.Units is not the bare search's trace")
				}
				if len(second) > 0 {
					declined++
					if !strings.HasPrefix(second[0], fmt.Sprintf("unit %s vertical 0 ", name)) {
						t.Errorf("the second search does not start at unit 0: %s", second[0])
					}
				}
			}, stubby.WithObserver(obs))
		})
	}
	if members == 4 && (adopted == 0 || declined == 0) {
		t.Errorf("%d adopted and %d declined second searches, want both", adopted, declined)
	}
}
