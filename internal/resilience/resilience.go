// Package resilience is the fault-tolerant I/O layer between the
// SieveStore core and its storage ensemble. It wraps any Backend with,
// from the inside out:
//
//   - per-request deadlines — a hung origin volume returns
//     ErrBackendTimeout instead of wedging the caller (and every
//     coalesced waiter parked behind its in-flight entry);
//   - a retry policy — transient failures (timeouts, connection resets,
//     errors that declare themselves retryable) are retried with capped
//     exponential backoff and jitter under a per-op attempt budget, while
//     permanent errors fail fast;
//   - per-(server, volume) circuit breakers — a device that keeps
//     failing trips its breaker and fast-fails subsequent requests with
//     ErrCircuitOpen instead of eating the full timeout on every one,
//     with half-open probing to detect recovery.
//
// Wrap composes all three, and RetryPolicy is only its configuration.
// Wrap keeps one breaker per (server, volume).
package resilience

import (
	"errors"
	"fmt"
)

// Backend matches core.Backend / store.Backend structurally: a
// byte-addressable multi-volume storage ensemble.
type Backend interface {
	ReadAt(server, volume int, p []byte, off uint64) error
	WriteAt(server, volume int, p []byte, off uint64) error
}

// ErrBackendTimeout reports a backend request abandoned at its deadline.
// The request may still complete on the device; the caller's buffer is
// untouched either way (the deadline wrapper I/Os through a private copy).
var ErrBackendTimeout = errors.New("resilience: backend request timed out")

// ErrCircuitOpen reports a request fast-failed because its device's
// circuit breaker is open (the device recently failed repeatedly and has
// not yet passed a recovery probe).
var ErrCircuitOpen = errors.New("resilience: circuit open")

// Transient classifies err: true means a retry may succeed (the failure
// was a timeout or declared itself transient), false means retrying is
// wasted work (the device rejected the request deterministically — bad
// geometry, unknown volume, data error). Unknown errors classify as
// permanent: retrying a misdirected write is worse than failing it.
//
// An error anywhere in the Unwrap chain can decide: the first
// `Transient() bool` method wins, so any layer marks its own error types
// retryable by implementing it; otherwise a true `Timeout() bool`
// (net.Error and friends) means transient.
func Transient(err error) bool {
	for e := err; e != nil; e = errors.Unwrap(e) {
		if e == ErrBackendTimeout {
			return true
		}
		if t, ok := e.(interface{ Transient() bool }); ok {
			return t.Transient()
		}
		if t, ok := e.(interface{ Timeout() bool }); ok && t.Timeout() {
			return true
		}
	}
	return false
}

// DeviceError wraps a backend failure with the device it came from, so
// ensemble-level callers can tell which of the 13 servers is sick.
type DeviceError struct {
	Server, Volume int
	Err            error
}

// Error implements error.
func (e *DeviceError) Error() string {
	return fmt.Sprintf("device %d:%d: %v", e.Server, e.Volume, e.Err)
}

// Unwrap exposes the underlying failure (preserving its classification).
func (e *DeviceError) Unwrap() error { return e.Err }
