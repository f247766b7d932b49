package stubby_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/stubby-mr/stubby"
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
