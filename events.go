package stubby

import "github.com/stubby-mr/stubby/internal/event"

// Event is the closed sum type of progress events: what the optimizer and
// the engine emit inside the process, what OptimizeHandle.Events and Client
// event streams deliver, and what an Observer attached with WithObserver is
// fed through ObserverEvents. It replaces the ever-widening Observer
// interface: adding a new event type is a non-breaking change (consumers
// switch on the types they care about), whereas adding an Observer method
// broke every implementor.
//
//	for ev := range handle.Events(ctx) {
//		switch e := ev.(type) {
//		case stubby.BestCostImprovedEvent:
//			log.Printf("unit %d best <- %.1f", e.Unit, e.Cost)
//		case stubby.StateChangedEvent:
//			log.Printf("state %s", e.State)
//		}
//	}
//
// The set is closed: only the types below implement Event. Each is a struct
// declared once, in internal/event, with a Workflow field (also returned by
// WorkflowName) besides the fields its comment lists.
type Event = event.Event

// UnitStartedEvent fires when the optimizer opens an optimization unit:
// Phase, Unit (a global index across phases), Jobs.
type UnitStartedEvent = event.UnitStarted

// SubplanEnumeratedEvent fires per enumerated subplan with its best cost
// after configuration search: Unit, Desc, Cost.
type SubplanEnumeratedEvent = event.SubplanEnumerated

// BestCostImprovedEvent fires when a subplan displaces the unit's
// incumbent: Unit, Desc, Cost.
type BestCostImprovedEvent = event.BestCostImproved

// JobFinishedEvent fires after the execution engine completes a job of a
// Run: Job, Start, End.
type JobFinishedEvent = event.JobFinished

// CacheReportEvent carries the estimate cache's cumulative statistics
// (Stats) after an optimization on a session with a cache attached.
type CacheReportEvent = event.CacheReport

// PlanStoreEvent fires once per submission on a session with a plan store
// attached (WithPlanStore), reporting whether the submission was answered
// from the store — Hit means the plan came back without running the
// optimizer — along with the store's cumulative statistics (Stats).
type PlanStoreEvent = event.PlanStore

// ReuseReportEvent fires once per optimizing submission on a session with
// a reuse catalog attached (WithReuseCatalog), reporting how many rooted
// sub-DAGs of this workflow's plan were replaced with scans of previously
// materialized results (Reused), along with the catalog's cumulative
// statistics (Stats).
type ReuseReportEvent = event.ReuseReport

// RobustnessEvent fires once per planned submission on a session with a
// fault model configured (WithRobustness), carrying the served plan's
// Monte-Carlo makespan distribution under that model (Report).
type RobustnessEvent = event.Robustness

// StateChangedEvent fires on every lifecycle transition of a submitted
// job (JobID, State, Err): Queued on admission, Running when a worker picks
// it up, then exactly one of Done, Failed (Err set), or Canceled. It is
// always the last event of a job's stream.
type StateChangedEvent = event.StateChanged

// ObserverEvents adapts an Observer to an event consumer — the one place an
// Observer and the event stream meet: the returned function dispatches each
// event to the matching Observer method and drops the types that have none
// (the store, reuse, robustness and state events). WithObserver installs
// exactly this function as the session's sink; use it directly to feed an
// Observer from a handle's or a client's stream:
//
//	sink := stubby.ObserverEvents(myObserver)
//	for ev := range handle.Events(ctx) { sink(ev) }
func ObserverEvents(obs Observer) func(Event) {
	return func(ev Event) {
		switch e := ev.(type) {
		case UnitStartedEvent:
			obs.UnitStarted(e.Workflow, e.Phase, e.Unit, e.Jobs)
		case SubplanEnumeratedEvent:
			obs.SubplanEnumerated(e.Workflow, e.Unit, e.Desc, e.Cost)
		case BestCostImprovedEvent:
			obs.BestCostImproved(e.Workflow, e.Unit, e.Desc, e.Cost)
		case JobFinishedEvent:
			obs.JobFinished(e.Workflow, e.Job, e.Start, e.End)
		case CacheReportEvent:
			obs.EstimateCacheReport(e.Workflow, e.Stats)
		}
	}
}
