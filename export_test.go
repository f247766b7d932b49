package stubby

// The event wire mappers, for the round-trip completeness test.
var (
	EventToDoc   = eventToDoc
	EventFromDoc = eventFromDoc
)
