package metrics

import "time"

// OpLatencySnapshot is an exported, JSON-friendly summary of one
// operation kind's whole-call service times (e.g. all ReadAt calls of a
// store). It is embedded in core.Stats and travels over the appliance's
// OpStats wire encoding.
type OpLatencySnapshot struct {
	Ops        int64 // operations, exact
	Errors     int64 // operations that returned an error, exact
	TotalNanos int64 // summed service time: core.Store's is its timed sample's mean × Ops
	MaxNanos   int64 // worst single operation: core.Store's is its timed sample's
}

// Mean returns the average service time, TotalNanos/Ops: for a core.Store,
// the mean of its timed sample. A snapshot with no operations —
// or a nonsensical one (negative Ops from a corrupt merge or hand-built
// value) — yields 0 rather than dividing by zero or reporting a negative
// duration.
func (s OpLatencySnapshot) Mean() time.Duration {
	if s.Ops <= 0 {
		return 0
	}
	return time.Duration(s.TotalNanos / s.Ops)
}
