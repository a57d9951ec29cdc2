package csm

import (
	"errors"
	"time"
)

// ErrDeadline is returned by an engine's Run/ProcessUpdate when the context
// expires mid-enumeration; it is what the success-rate experiments count as
// a timeout.
var ErrDeadline = errors.New("csm: deadline exceeded during enumeration")

// Delta is the result of processing a single update ΔG: the incremental
// match counts ΔM plus instrumentation.
type Delta struct {
	Positive uint64 // newly appearing matches
	Negative uint64 // expired matches
	Nodes    uint64 // search-tree nodes visited
	TADS     time.Duration
	TFind    time.Duration
}

// MatchFunc observes a complete match. count is usually 1; counting-mode
// algorithms may report a leaf standing for count matches. positive is
// false for matches expiring due to a deletion.
type MatchFunc func(s *State, count uint64, positive bool)
