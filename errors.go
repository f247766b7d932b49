package stubby

import (
	"github.com/stubby-mr/stubby/internal/stubbyerr"
)

// Error is the structured error of the stubby API. Every public entry
// point — Session methods, Submit handles, and Client calls against a
// stubbyd server — surfaces failures as (or wrapping) an *Error, so one
// errors.As(*stubby.Error) branch works across library and wire:
//
//	var se *stubby.Error
//	if errors.As(err, &se) {
//		log.Printf("kind=%s workflow=%s job=%s", se.Kind, se.Workflow, se.Job)
//	}
//
// Kinds also work directly as errors.Is sentinels:
//
//	if errors.Is(err, stubby.ErrKindOverloaded) { retryLater() }
type Error = stubbyerr.Error

// ErrorKind classifies an Error; see the ErrKind constants.
type ErrorKind = stubbyerr.Kind

// Error kinds. Each is itself an error value usable as an errors.Is
// target.
const (
	// ErrKindInternal is the catch-all for unclassified failures.
	ErrKindInternal = stubbyerr.KindInternal
	// ErrKindInvalid marks malformed inputs: invalid workflows,
	// undecodable wire documents, out-of-range options.
	ErrKindInvalid = stubbyerr.KindInvalid
	// ErrKindUnknownPlanner marks a planner name absent from the registry.
	ErrKindUnknownPlanner = stubbyerr.KindUnknownPlanner
	// ErrKindOverloaded marks a submission shed by a full admission queue;
	// the job was never enqueued and retrying later is safe.
	ErrKindOverloaded = stubbyerr.KindOverloaded
	// ErrKindUnavailable marks a submission rejected by a draining or
	// closed service.
	ErrKindUnavailable = stubbyerr.KindUnavailable
	// ErrKindNotFound marks an unknown job ID.
	ErrKindNotFound = stubbyerr.KindNotFound
	// ErrKindConflict marks a request invalid in the job's current state
	// (e.g. fetching the result of an unfinished job).
	ErrKindConflict = stubbyerr.KindConflict
	// ErrKindCanceled marks work stopped by cancellation.
	ErrKindCanceled = stubbyerr.KindCanceled
	// ErrKindDeadline marks work stopped by a deadline.
	ErrKindDeadline = stubbyerr.KindDeadline
)
