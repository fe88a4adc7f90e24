package metrics

import "time"

// OpLatencySnapshot is an exported, JSON-friendly summary of one
// operation kind's whole-call service times (e.g. all ReadAt calls of a
// store). It is embedded in core.Stats and travels over the appliance's
// OpStats wire encoding.
type OpLatencySnapshot struct {
	Ops        int64 // completed operations
	Errors     int64 // operations that returned an error
	TotalNanos int64 // summed service time
	MaxNanos   int64 // worst single operation
}

// Mean returns the average service time. A snapshot with no operations —
// or a nonsensical one (negative Ops from a corrupt merge or hand-built
// value) — yields 0 rather than dividing by zero or reporting a negative
// duration.
func (s OpLatencySnapshot) Mean() time.Duration {
	if s.Ops <= 0 {
		return 0
	}
	return time.Duration(s.TotalNanos / s.Ops)
}

// Throughput returns operations per second over a wall-clock window.
// A zero, negative, or sub-nanosecond window, or a negative op count,
// yields 0 — never Inf or NaN.
func (s OpLatencySnapshot) Throughput(elapsed time.Duration) float64 {
	if elapsed <= 0 || s.Ops < 0 {
		return 0
	}
	return float64(s.Ops) / elapsed.Seconds()
}
