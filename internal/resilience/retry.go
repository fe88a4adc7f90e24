package resilience

import (
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy configures Wrap's retries of transient failures: capped
// exponential backoff with full jitter. The zero value retries nothing.
type RetryPolicy struct {
	// Max is the retry budget per operation: how many attempts may follow
	// the first (0 = never retry).
	Max int
	// Base is the backoff before the first retry (default 10 ms when Max
	// > 0); attempt n waits up to Base·2ⁿ.
	Base time.Duration
	// Cap bounds any single backoff (default 1 s).
	Cap time.Duration
	// Sleep is injectable for tests; nil means time.Sleep.
	Sleep func(time.Duration)
	// Rand is injectable for tests: a uniform [0,1) source; nil means a
	// locked package-level source.
	Rand func() float64
}

// withDefaults fills the unset knobs.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Max > 0 && p.Base <= 0 {
		p.Base = 10 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = time.Second
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	if p.Rand == nil {
		p.Rand = lockedFloat64
	}
	return p
}

var randMu sync.Mutex

// lockedFloat64 is math/rand's global Float64 under a private lock (the
// global source is already locked, but keeping our own makes the
// dependency explicit and swappable).
func lockedFloat64() float64 {
	randMu.Lock()
	defer randMu.Unlock()
	return rand.Float64()
}

// backoff returns the jittered delay before retry attempt n (0-based):
// uniform in (0, min(Cap, Base·2ⁿ)]. Full jitter desynchronizes the
// retry herds of concurrent requests that failed together.
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.Base << uint(n)
	if d <= 0 || d > p.Cap {
		d = p.Cap
	}
	j := time.Duration(p.Rand() * float64(d))
	if j <= 0 {
		j = time.Nanosecond
	}
	return j
}
