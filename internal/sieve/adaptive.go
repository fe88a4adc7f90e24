package sieve

import (
	"fmt"
	"time"

	"repro/internal/block"
)

// This file implements the paper's §7 forward-looking tuning discussion as
// a working mechanism: an adaptive wrapper around SieveStore-C that
// adjusts the precise-tier threshold T2 online so the allocation-write rate
// tracks an operator-set budget. The static thresholds the paper tunes by
// hand (t1=9, t2=4) are workload-dependent; the adaptive sieve removes that
// knob by trading admission aggressiveness against the SSD write budget.

// AdaptiveConfig parameterizes the self-tuning sieve.
type AdaptiveConfig struct {
	// Base is the underlying two-tier sieve configuration; Base.T2 is the
	// starting threshold.
	Base CConfig
	// TargetAllocsPerMille is the allocation budget: allocation-writes per
	// 1000 misses the controller steers toward (the paper's SieveStore
	// variants land around 1–3‰).
	TargetAllocsPerMille float64
	// MinT2 and MaxT2 bound the adjustment range.
	MinT2, MaxT2 int
	// AdjustEvery is the control interval (defaults to one subwindow).
	AdjustEvery time.Duration
}

// DefaultAdaptiveConfig returns a controller around the paper's tuned
// sieve, budgeting ≈2 allocation-writes per 1000 misses.
func DefaultAdaptiveConfig() AdaptiveConfig {
	base := DefaultCConfig()
	return AdaptiveConfig{
		Base:                 base,
		TargetAllocsPerMille: 2,
		MinT2:                1,
		MaxT2:                64,
		AdjustEvery:          base.Window / time.Duration(base.Subwindows),
	}
}

// Validate checks the controller configuration.
func (c *AdaptiveConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.TargetAllocsPerMille <= 0 {
		return fmt.Errorf("sieve: TargetAllocsPerMille must be positive")
	}
	if c.MinT2 < 1 || c.MaxT2 < c.MinT2 {
		return fmt.Errorf("sieve: bad T2 bounds [%d,%d]", c.MinT2, c.MaxT2)
	}
	if c.Base.T2 < c.MinT2 || c.Base.T2 > c.MaxT2 {
		return fmt.Errorf("sieve: Base.T2 %d outside [%d,%d]", c.Base.T2, c.MinT2, c.MaxT2)
	}
	if c.AdjustEvery <= 0 {
		return fmt.Errorf("sieve: AdjustEvery must be positive")
	}
	return nil
}

// Adaptive is a self-tuning SieveStore-C: a feedback controller that
// raises T2 when allocation-writes exceed the budget and lowers it when
// there is headroom.
type Adaptive struct {
	cfg   AdaptiveConfig
	inner *C
	// window accounting
	periodStart int64
	misses      int64
	allocs      int64
	adjustments int64
}

// NewAdaptive returns a self-tuning sieve.
func NewAdaptive(cfg AdaptiveConfig) (*Adaptive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inner, err := NewC(cfg.Base)
	if err != nil {
		return nil, err
	}
	return &Adaptive{cfg: cfg, inner: inner}, nil
}

// Name implements Policy.
func (a *Adaptive) Name() string { return "SieveStore-C-adaptive" }

// T2 returns the current precise-tier threshold.
func (a *Adaptive) T2() int { return a.inner.cfg.T2 }

// Adjustments returns how many times the controller changed T2.
func (a *Adaptive) Adjustments() int64 { return a.adjustments }

// ShouldAllocate implements Policy.
func (a *Adaptive) ShouldAllocate(acc block.Access) bool {
	a.maybeAdjust(acc.Time)
	a.misses++
	if a.inner.ShouldAllocate(acc) {
		a.allocs++
		return true
	}
	return false
}

// maybeAdjust runs the controller once per interval: one T2 step per
// interval, proportional-free (a sign controller), which is stable because
// the allocation rate is monotone in T2.
func (a *Adaptive) maybeAdjust(now int64) {
	interval := a.cfg.AdjustEvery.Nanoseconds()
	if a.periodStart == 0 {
		a.periodStart = now
		return
	}
	if now-a.periodStart < interval {
		return
	}
	if a.misses >= 100 { // don't steer on noise
		rate := float64(a.allocs) * 1000 / float64(a.misses)
		switch t2 := &a.inner.cfg.T2; {
		case rate > a.cfg.TargetAllocsPerMille*1.5 && *t2 < a.cfg.MaxT2:
			*t2++
			a.adjustments++
		case rate < a.cfg.TargetAllocsPerMille*0.5 && *t2 > a.cfg.MinT2:
			*t2--
			a.adjustments++
		}
	}
	a.periodStart = now
	a.misses, a.allocs = 0, 0
}

var _ Policy = (*Adaptive)(nil)
