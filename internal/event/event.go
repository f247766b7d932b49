// Package event declares the typed progress events of an optimization,
// once: the optimizer and the session emit them into a plain func(Event),
// a submitted job's log stores them, and the public package re-exports each
// under its historical name (stubby.UnitStartedEvent is event.UnitStarted)
// and documents there when it fires.
//
// It is a leaf so that internal/optimizer can emit what the root package
// publishes: it imports only the types the events carry (the stats
// snapshots, the job state, the robustness report), none of which import it.
package event

import (
	"github.com/stubby-mr/stubby/internal/service"
	"github.com/stubby-mr/stubby/internal/stats"
	"github.com/stubby-mr/stubby/internal/whatif"
)

// Event is the closed sum type of progress events: only the types in this
// package implement it.
type Event interface {
	// WorkflowName returns the name of the workflow the event is about.
	WorkflowName() string
	event()
}

// Search progress, in the order the optimizer emits it per unit.
type (
	UnitStarted struct {
		Workflow string
		Phase    string
		Unit     int // global index across phases
		Jobs     []string
	}
	SubplanEnumerated struct {
		Workflow string
		Unit     int
		Desc     string
		Cost     float64 // best cost after configuration search
	}
	BestCostImproved struct {
		Workflow string
		Unit     int
		Desc     string
		Cost     float64
	}
)

// JobFinished is the execution engine's one event: a job of a Run completed.
type JobFinished struct {
	Workflow   string
	Job        string
	Start, End float64
}

// The reports that follow an optimization, in stream order; each is emitted
// only on a session with the matching attachment.
type (
	CacheReport struct {
		Workflow string
		Stats    stats.Cache
	}
	PlanStore struct {
		Workflow string
		Hit      bool // answered from the store, without running the optimizer
		Stats    stats.Store
	}
	Robustness struct {
		Workflow string
		Report   *whatif.Robustness
	}
	ReuseReport struct {
		Workflow string
		Reused   int // rooted sub-DAGs replaced with scans of stored results
		Stats    stats.Reuse
	}
)

// StateChanged is a lifecycle transition of a submitted job; a terminal one
// is always the last event of the job's stream.
type StateChanged struct {
	Workflow string
	JobID    string
	State    service.State
	Err      error // set on Failed
}

func (e UnitStarted) WorkflowName() string       { return e.Workflow }
func (e SubplanEnumerated) WorkflowName() string { return e.Workflow }
func (e BestCostImproved) WorkflowName() string  { return e.Workflow }
func (e JobFinished) WorkflowName() string       { return e.Workflow }
func (e CacheReport) WorkflowName() string       { return e.Workflow }
func (e PlanStore) WorkflowName() string         { return e.Workflow }
func (e ReuseReport) WorkflowName() string       { return e.Workflow }
func (e Robustness) WorkflowName() string        { return e.Workflow }
func (e StateChanged) WorkflowName() string      { return e.Workflow }

func (UnitStarted) event()       {}
func (SubplanEnumerated) event() {}
func (BestCostImproved) event()  {}
func (JobFinished) event()       {}
func (CacheReport) event()       {}
func (PlanStore) event()         {}
func (ReuseReport) event()       {}
func (Robustness) event()        {}
func (StateChanged) event()      {}
