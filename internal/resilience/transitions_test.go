package resilience

import (
	"errors"
	"testing"
	"time"
)

// TestBreakerTransitionCounters walks the breaker through every edge of
// its state machine and checks each transition is counted exactly once
// per traversal — the monotonic counters /metrics exports as
// sievestore_resilience_breaker_transitions_*.
func TestBreakerTransitionCounters(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{Threshold: 3, OpenFor: time.Second, Now: clock})
	fail := errors.New("dead device")

	if tr := b.Transitions(); tr != (BreakerTransitions{}) {
		t.Fatalf("fresh breaker has transitions %+v", tr)
	}

	// closed → open.
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed Allow: %v", err)
		}
		b.Record(fail)
	}
	want := BreakerTransitions{ClosedOpen: 1}
	if tr := b.Transitions(); tr != want {
		t.Fatalf("after trip: %+v, want %+v", tr, want)
	}

	// open → half-open (cool-down expiry), then the probe fails:
	// half-open → open.
	now = now.Add(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	b.Record(fail)
	want = BreakerTransitions{ClosedOpen: 1, OpenHalfOpen: 1, HalfOpenOpen: 1}
	if tr := b.Transitions(); tr != want {
		t.Fatalf("after failed probe: %+v, want %+v", tr, want)
	}

	// Second cool-down: probe succeeds: half-open → closed.
	now = now.Add(1100 * time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Record(nil)
	want = BreakerTransitions{ClosedOpen: 1, OpenHalfOpen: 2, HalfOpenClosed: 1, HalfOpenOpen: 1}
	if tr := b.Transitions(); tr != want {
		t.Fatalf("after recovery: %+v, want %+v", tr, want)
	}

	// A fast-failed request while open must not count as a transition.
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow after recovery: %v", err)
		}
		b.Record(fail)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("expected open circuit, got %v", err)
	}
	want = BreakerTransitions{ClosedOpen: 2, OpenHalfOpen: 2, HalfOpenClosed: 1, HalfOpenOpen: 1}
	if tr := b.Transitions(); tr != want {
		t.Fatalf("after re-trip: %+v, want %+v", tr, want)
	}
	// Consistency with the trip counter: trips = closed→open + half-open→open.
	if got := b.Trips(); got != want.ClosedOpen+want.HalfOpenOpen {
		t.Fatalf("Trips=%d, want %d", got, want.ClosedOpen+want.HalfOpenOpen)
	}
}

// TestResilientStatsAggregatesTransitions drives two devices through
// trips via the Wrap envelope and checks Snapshot.Transitions sums both
// breakers.
func TestResilientStatsAggregatesTransitions(t *testing.T) {
	dead := errors.New("io error")
	be := backendFunc(func(server, volume int, p []byte, off uint64) error {
		return MarkTransient(dead)
	})
	r := Wrap(be, Config{
		Retry:   RetryPolicy{Max: 0},
		Breaker: BreakerConfig{Threshold: 2, OpenFor: time.Hour},
	})
	for dev := 0; dev < 2; dev++ {
		for i := 0; i < 2; i++ {
			if err := r.ReadAt(dev, 0, make([]byte, 8), 0); err == nil {
				t.Fatal("expected injected failure")
			}
		}
	}
	s := r.Stats()
	if s.Transitions.ClosedOpen != 2 {
		t.Fatalf("ClosedOpen=%d, want 2 (one per device)", s.Transitions.ClosedOpen)
	}
	if s.Transitions.OpenHalfOpen != 0 || s.Transitions.HalfOpenClosed != 0 || s.Transitions.HalfOpenOpen != 0 {
		t.Fatalf("unexpected half-open activity: %+v", s.Transitions)
	}
	if s.BreakerTrips != 2 {
		t.Fatalf("BreakerTrips=%d, want 2", s.BreakerTrips)
	}
}

// backendFunc adapts a function to the Backend interface for tests.
type backendFunc func(server, volume int, p []byte, off uint64) error

func (f backendFunc) ReadAt(server, volume int, p []byte, off uint64) error {
	return f(server, volume, p, off)
}

func (f backendFunc) WriteAt(server, volume int, p []byte, off uint64) error {
	return f(server, volume, p, off)
}
