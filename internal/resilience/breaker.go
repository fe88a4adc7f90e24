package resilience

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// BreakerConfig tunes a circuit breaker.
type BreakerConfig struct {
	// Threshold trips the breaker when this many of the last 2×Threshold
	// outcomes failed (default 5; < 0 disables the breaker).
	Threshold int
	// OpenFor is how long a tripped breaker fast-fails before letting one
	// half-open probe through (default 1 s).
	OpenFor time.Duration
	// Now is injectable for tests; nil means time.Now.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold == 0 {
		c.Threshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker states.
const (
	stateClosed   = iota // normal operation, outcomes tracked in the window
	stateOpen            // fast-failing; waiting out OpenFor
	stateHalfOpen        // letting one probe request test the device
)

// Breaker is one device's circuit breaker: closed while the device
// behaves, open (fast-failing) after Threshold of the last 2×Threshold
// requests failed, half-open after OpenFor — one probe goes through, and
// its outcome closes or re-opens the circuit. It is safe for concurrent
// use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    int
	window   *metrics.FailureWindow
	openedAt time.Time
	probing  bool // a half-open probe is outstanding
	trips    int64
	trans    BreakerTransitions
}

// BreakerTransitions counts every state-machine edge a breaker has
// taken. Unlike the point-in-time Open() snapshot, these are monotonic,
// so a post-mortem can reconstruct flap behavior (a breaker that tripped
// and recovered between two scrapes still shows up here).
type BreakerTransitions struct {
	ClosedOpen     int64 // closed → open (window hit Threshold)
	OpenHalfOpen   int64 // open → half-open (cool-down expired, probe let through)
	HalfOpenClosed int64 // half-open → closed (probe succeeded)
	HalfOpenOpen   int64 // half-open → open (probe failed)
}

// add accumulates o into t.
func (t *BreakerTransitions) add(o BreakerTransitions) {
	t.ClosedOpen += o.ClosedOpen
	t.OpenHalfOpen += o.OpenHalfOpen
	t.HalfOpenClosed += o.HalfOpenClosed
	t.HalfOpenOpen += o.HalfOpenOpen
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{cfg: cfg, window: metrics.NewFailureWindow(2 * cfg.Threshold)}
}

// Allow reports whether a request may proceed now: nil to proceed,
// ErrCircuitOpen to fast-fail. Every allowed request MUST be matched by
// exactly one Record call (the half-open probe is reserved here and
// released there).
func (b *Breaker) Allow() error {
	if b.cfg.Threshold < 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		return nil
	case stateOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenFor {
			return ErrCircuitOpen
		}
		b.state = stateHalfOpen
		b.probing = false
		b.trans.OpenHalfOpen++
		fallthrough
	default: // stateHalfOpen
		if b.probing {
			return ErrCircuitOpen
		}
		b.probing = true
		return nil
	}
}

// Record feeds one allowed request's outcome back into the breaker.
func (b *Breaker) Record(err error) {
	if b.cfg.Threshold < 0 {
		return
	}
	failed := err != nil
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stateClosed:
		b.window.Observe(failed)
		if b.window.Failures() >= b.cfg.Threshold {
			b.trip()
		}
	case stateHalfOpen:
		b.probing = false
		if failed {
			b.trip()
		} else {
			b.state = stateClosed
			b.window.Reset()
			b.trans.HalfOpenClosed++
		}
	case stateOpen:
		// A late Record from a request allowed before the trip; the
		// window restarts from scratch on the next close, so drop it.
	}
}

// trip moves to open and stamps the cool-down. Caller holds b.mu.
func (b *Breaker) trip() {
	if b.state == stateHalfOpen {
		b.trans.HalfOpenOpen++
	} else {
		b.trans.ClosedOpen++
	}
	b.state = stateOpen
	b.openedAt = b.cfg.Now()
	b.window.Reset()
	b.probing = false
	b.trips++
}

// Open reports whether the breaker is currently fast-failing (open and
// within its cool-down).
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == stateOpen && b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenFor
}

// Trips returns how many times the breaker has tripped.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Transitions snapshots the breaker's cumulative state-transition
// counts.
func (b *Breaker) Transitions() BreakerTransitions {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trans
}
