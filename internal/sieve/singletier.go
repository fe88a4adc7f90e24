package sieve

import (
	"fmt"

	"repro/internal/block"
)

// SingleTier is the ablation variant of SieveStore-C with only the
// imprecise tier: allocation is decided directly from the (aliased) IMCT
// counts. The paper reports this was ineffective — low-reuse blocks
// piggyback on the miss counts of popular blocks that share their slot and
// receive undeserved allocations (§3.3); the ablation benchmark
// demonstrates exactly that pollution.
type SingleTier struct{ c *C }

// NewSingleTier returns a single-tier sieve allocating once a block's
// (aliased) slot sees cfg.T1+cfg.T2 misses in the window — the same total
// miss budget as the two-tier sieve, but counted without precision: a C
// with that sum as its T1 and an MCT it never reaches, so the sum may not
// pass the IMCT lane cap.
func NewSingleTier(cfg CConfig) (*SingleTier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.T1 += cfg.T2
	c, err := NewC(cfg)
	if err != nil {
		return nil, fmt.Errorf("sieve: SingleTier counts to T1+T2: %w", err)
	}
	return &SingleTier{c}, nil
}

// Name implements Policy.
func (s *SingleTier) Name() string { return "SingleTier-IMCT" }

// AdmitRun implements Policy: the clock advances once a run, and a miss
// allocates once its bumped slot's total reaches T1+T2.
func (s *SingleTier) AdmitRun(t int64, _ block.Kind, misses []block.Key, dst []int) []int {
	s.c.advance(t)
	return admitEach(misses, dst, func(key block.Key) bool {
		i := s.c.slot(key)
		s.c.bump(i)
		return s.c.total(i) >= s.c.cfg.T1
	})
}
