// Package sieve implements SieveStore's allocation policies: the unsieved
// baselines (allocate-on-demand, write-miss-no-allocate), the random sieve,
// and SieveStore-C's two-tier hysteresis sieve (IMCT + MCT), plus the
// analytic §3.1 models (Table 2 and the Belady selective-allocation
// counterexample).
//
// A Policy picks which of one request's missed blocks get a cache frame,
// offered as one run at the request's issue time, in block order, after
// the probe: core.Store's call shape, so simulator and store admit alike.
// Only sieving policies can bound allocation-writes: the replacement
// policy (LRU, as in the paper) cannot stop a low-reuse miss from costing
// an SSD write.
package sieve

import (
	"math/rand"

	"repro/internal/block"
)

// Policy is a cache-allocation policy for continuous (per-access) caching.
// Implementations may keep internal metastate about uncached blocks; they
// are offered each missed block exactly once.
type Policy interface {
	// Name identifies the policy in reports ("AOD", "SieveStore-C", ...).
	Name() string
	// AdmitRun offers the blocks one request of the given kind missed, in
	// block order, at its issue time t (trace nanoseconds), and appends to
	// dst, ascending, the index in misses of each block to allocate.
	AdmitRun(t int64, kind block.Kind, misses []block.Key, dst []int) []int
}

// admitEach appends to dst the index of each miss that admit allocates.
func admitEach(misses []block.Key, dst []int, admit func(block.Key) bool) []int {
	for i, key := range misses {
		if admit(key) {
			dst = append(dst, i)
		}
	}
	return dst
}

// AOD is the allocate-on-demand baseline: every miss allocates (Table 3).
type AOD struct{}

// Name implements Policy.
func (AOD) Name() string { return "AOD" }

// AdmitRun implements Policy: always allocate.
func (AOD) AdmitRun(_ int64, _ block.Kind, misses []block.Key, dst []int) []int {
	return admitEach(misses, dst, func(block.Key) bool { return true })
}

// WMNA is the write-miss-no-allocate baseline: only read misses allocate
// (Table 3).
type WMNA struct{}

// Name implements Policy.
func (WMNA) Name() string { return "WMNA" }

// AdmitRun implements Policy.
func (WMNA) AdmitRun(_ int64, kind block.Kind, misses []block.Key, dst []int) []int {
	return admitEach(misses, dst, func(block.Key) bool { return kind == block.Read })
}

// RandC is RandSieve-C: it allocates a random fraction of all misses
// (default 1%), the continuous random-sieving strawman of Figure 5. It
// demonstrates that SieveStore's gains come from identifying hot blocks,
// not merely from allocating rarely.
type RandC struct {
	P   float64
	rng *rand.Rand
}

// NewRandC returns a RandSieve-C policy allocating fraction p of misses.
func NewRandC(p float64, seed int64) *RandC {
	return &RandC{P: p, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Policy.
func (r *RandC) Name() string { return "RandSieve-C" }

// AdmitRun implements Policy: one draw a miss, in block order.
func (r *RandC) AdmitRun(_ int64, _ block.Kind, misses []block.Key, dst []int) []int {
	return admitEach(misses, dst, func(block.Key) bool { return r.rng.Float64() < r.P })
}
