package resilience

import (
	"math/rand"
	"time"
)

// RetryPolicy configures Wrap's retries of transient failures: capped
// exponential backoff with full jitter. The zero value retries nothing.
type RetryPolicy struct {
	// Max is the retry budget per operation: how many attempts may follow
	// the first (0 = never retry).
	Max int
	// Sleep is injectable for tests; nil means time.Sleep.
	Sleep func(time.Duration)
}

// Backoff bounds: attempt n waits up to min(retryCap, retryBase·2ⁿ).
const (
	retryBase = 10 * time.Millisecond
	retryCap  = time.Second
)

// backoff returns the jittered delay before retry attempt n (0-based):
// uniform in (0, min(retryCap, retryBase·2ⁿ)]. Full jitter desynchronizes
// the retry herds of concurrent requests that failed together.
func backoff(n int) time.Duration {
	d := retryBase << uint(n)
	if d <= 0 || d > retryCap {
		d = retryCap
	}
	j := time.Duration(rand.Float64() * float64(d))
	if j <= 0 {
		j = time.Nanosecond
	}
	return j
}
