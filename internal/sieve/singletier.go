package sieve

import "repro/internal/block"

// SingleTier is the ablation variant of SieveStore-C with only the
// imprecise tier: allocation is decided directly from the (aliased) IMCT
// counts. The paper reports this was ineffective — low-reuse blocks
// piggyback on the miss counts of popular blocks that share their slot and
// receive undeserved allocations (§3.3); the ablation benchmark
// demonstrates exactly that pollution.
type SingleTier struct {
	cfg       CConfig
	subNanos  int64
	imct      []winCounter
	threshold int
}

// NewSingleTier returns a single-tier sieve allocating once a block's
// (aliased) slot sees cfg.T1+cfg.T2 misses in the window — the same total
// miss budget as the two-tier sieve, but counted without precision.
func NewSingleTier(cfg CConfig) (*SingleTier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SingleTier{
		cfg:       cfg,
		subNanos:  cfg.Window.Nanoseconds() / int64(cfg.Subwindows),
		imct:      make([]winCounter, cfg.IMCTSize),
		threshold: cfg.T1 + cfg.T2,
	}, nil
}

// Name implements Policy.
func (s *SingleTier) Name() string { return "SingleTier-IMCT" }

// ShouldAllocate implements Policy.
func (s *SingleTier) ShouldAllocate(acc block.Access) bool {
	slot := &s.imct[slotOf(acc.Key, len(s.imct))]
	return slot.bump(acc.Time/s.subNanos, s.cfg.Subwindows) >= s.threshold
}

var (
	_ Policy = (*SingleTier)(nil)
	_ Policy = (*C)(nil)
	_ Policy = AOD{}
	_ Policy = WMNA{}
	_ Policy = (*RandC)(nil)
)
