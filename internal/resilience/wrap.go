package resilience

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Config composes the full fault-tolerant I/O stack for Wrap.
type Config struct {
	// Timeout bounds each backend request attempt (0 = no deadline).
	Timeout time.Duration
	// Retry is the per-op retry policy (zero value = no retries).
	Retry RetryPolicy
	// Breaker configures the per-(server, volume) circuit breakers; set
	// Threshold to a negative value to disable breaking entirely.
	Breaker BreakerConfig
}

// devKey identifies one volume of the ensemble.
type devKey struct{ server, volume int }

// Resilient is a Backend hardened with deadlines, retries, and
// per-device circuit breakers (see the package comment). It is safe for
// concurrent use and adds two atomic loads and one small mutex hold per
// request on the happy path.
type Resilient struct {
	inner Backend // deadline-wrapped
	cfg   Config

	mu       sync.Mutex
	breakers map[devKey]*Breaker

	retries   atomic.Int64
	timeouts  atomic.Int64
	fastFails atomic.Int64
	transient atomic.Int64
	permanent atomic.Int64
}

// Wrap hardens backend with cfg. The layering per request is: breaker
// check → [attempt with deadline → breaker record] → classify → maybe
// back off and repeat. Every attempt (not just every op) feeds the
// breaker, so a device failing mid-retry trips as fast as one failing
// distinct requests.
func Wrap(backend Backend, cfg Config) *Resilient {
	if cfg.Retry.Sleep == nil {
		cfg.Retry.Sleep = time.Sleep
	}
	cfg.Breaker = cfg.Breaker.withDefaults()
	return &Resilient{
		inner:    WithDeadline(backend, cfg.Timeout),
		cfg:      cfg,
		breakers: make(map[devKey]*Breaker),
	}
}

// breaker returns (creating on first use) the device's breaker.
func (r *Resilient) breaker(server, volume int) *Breaker {
	k := devKey{server, volume}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.breakers[k]
	if !ok {
		b = NewBreaker(r.cfg.Breaker)
		r.breakers[k] = b
	}
	return b
}

// do runs one op under the breaker + retry envelope.
func (r *Resilient) do(server, volume int, op func() error) error {
	br := r.breaker(server, volume)
	var err error
	for attempt := 0; ; attempt++ {
		if aerr := br.Allow(); aerr != nil {
			r.fastFails.Add(1)
			return &DeviceError{Server: server, Volume: volume, Err: aerr}
		}
		err = op()
		br.Record(err)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrBackendTimeout) {
			r.timeouts.Add(1)
		}
		if !Transient(err) {
			r.permanent.Add(1)
			return err
		}
		r.transient.Add(1)
		if attempt >= r.cfg.Retry.Max {
			return err
		}
		r.retries.Add(1)
		r.cfg.Retry.Sleep(backoff(attempt))
	}
}

// ReadAt implements Backend.
func (r *Resilient) ReadAt(server, volume int, p []byte, off uint64) error {
	return r.do(server, volume, func() error {
		return r.inner.ReadAt(server, volume, p, off)
	})
}

// WriteAt implements Backend.
func (r *Resilient) WriteAt(server, volume int, p []byte, off uint64) error {
	return r.do(server, volume, func() error {
		return r.inner.WriteAt(server, volume, p, off)
	})
}

// Snapshot is a point-in-time copy of the layer's counters.
type Snapshot struct {
	Retries          int64 // attempts issued beyond each op's first
	Timeouts         int64 // attempts abandoned at their deadline
	BreakerFastFails int64 // requests rejected without touching the device
	BreakerTrips     int64 // closed/half-open → open transitions, all devices
	OpenDevices      int   // breakers currently fast-failing
	TransientErrors  int64 // attempt failures classified retryable
	PermanentErrors  int64 // op failures classified permanent
	// Transitions accumulates every breaker state-machine edge across all
	// devices (monotonic; see BreakerTransitions).
	Transitions BreakerTransitions
}

// Stats snapshots the layer's counters.
func (r *Resilient) Stats() Snapshot {
	s := Snapshot{
		Retries:          r.retries.Load(),
		Timeouts:         r.timeouts.Load(),
		BreakerFastFails: r.fastFails.Load(),
		TransientErrors:  r.transient.Load(),
		PermanentErrors:  r.permanent.Load(),
	}
	r.mu.Lock()
	brs := make([]*Breaker, 0, len(r.breakers))
	for _, b := range r.breakers {
		brs = append(brs, b)
	}
	r.mu.Unlock()
	for _, b := range brs {
		s.BreakerTrips += b.Trips()
		s.Transitions.add(b.Transitions())
		if b.Open() {
			s.OpenDevices++
		}
	}
	return s
}
