package stubby

import "time"

// The event wire mappers, for the round-trip completeness test.
var (
	EventToDoc   = eventToDoc
	EventFromDoc = eventFromDoc
)

// SetJobRetention and SetRetryAfterPerJob vary, on a server not yet serving,
// what production fixes as the constants jobRetention and retryAfterPerJob.
func SetJobRetention(s *Server, n int) *Server { s.retain = n; return s }

func SetRetryAfterPerJob(s *Server, d time.Duration) *Server { s.retryPerJob = d; return s }

// SearchDigest is the plan-store key's digest of a session's search
// options, for tests that build a server's key by hand.
var SearchDigest = searchDigest

// UnkeyedOptions names the Options fields the plan-store key leaves out.
var UnkeyedOptions = unkeyedOptions
