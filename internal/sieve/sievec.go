package sieve

import (
	"fmt"
	"time"

	"repro/internal/block"
)

// maxSubwindows bounds the rotating-counter array so counters can live
// inline without per-entry allocation.
const maxSubwindows = 8

// CConfig parameterizes SieveStore-C's two-tier sieve (§3.3).
type CConfig struct {
	// IMCTSize is the number of slots in the imprecise miss-count table.
	// Blocks map many-to-one onto slots, so counts may be aliased.
	IMCTSize int
	// T1 is the IMCT threshold: a block's (possibly aliased) slot must
	// have seen at least T1 misses in the window before the block is
	// promoted to precise tracking. The paper tunes T1 = 9.
	T1 int
	// T2 is the MCT threshold: a promoted block must see T2 further
	// precisely-counted misses before it is allocated. The paper tunes
	// T2 = 4.
	T2 int
	// Window is the sliding time window W over which misses count.
	// The paper tunes W = 8 h.
	Window time.Duration
	// Subwindows is k, the number of discrete subwindows approximating the
	// sliding window (the paper uses k = 4, i.e. 2 h subwindows).
	Subwindows int
}

// DefaultCConfig returns the paper's tuned parameters. IMCTSize governs the
// aliasing rate and therefore scales with the trace footprint; the given
// size suits the experiment scale (workload.DefaultScale).
func DefaultCConfig() CConfig {
	return CConfig{
		IMCTSize:   1 << 17,
		T1:         9,
		T2:         4,
		Window:     8 * time.Hour,
		Subwindows: 4,
	}
}

// Validate checks the configuration.
func (c *CConfig) Validate() error {
	if c.IMCTSize < 1 {
		return fmt.Errorf("sieve: IMCTSize must be ≥1, got %d", c.IMCTSize)
	}
	if c.T1 < 1 || c.T2 < 1 {
		return fmt.Errorf("sieve: thresholds must be ≥1, got t1=%d t2=%d", c.T1, c.T2)
	}
	if c.Subwindows < 1 || c.Subwindows > maxSubwindows {
		return fmt.Errorf("sieve: Subwindows must be in [1,%d], got %d", maxSubwindows, c.Subwindows)
	}
	if c.Window <= 0 {
		return fmt.Errorf("sieve: Window must be positive")
	}
	return nil
}

// winCounter tracks misses over the last k subwindows with rotating
// counters (§3.3): counter i%k holds subwindow i's count; when time
// advances, stale counters are zeroed lazily.
type winCounter struct {
	counts  [maxSubwindows]uint16
	lastWin int64
}

// bump advances the counter to subwindow win, adds one miss, and returns
// the total count over the window.
func (w *winCounter) bump(win int64, k int) int {
	w.advance(win, k)
	if w.counts[win%int64(k)] < ^uint16(0) {
		w.counts[win%int64(k)]++
	}
	return w.total(k)
}

// advance zeroes out counters for subwindows that have fallen out of the
// window. If the counter has been idle for ≥ k subwindows all counts are
// inferred stale and zeroed (the paper's last-updated check).
func (w *winCounter) advance(win int64, k int) {
	if win-w.lastWin >= int64(k) {
		for i := 0; i < k; i++ {
			w.counts[i] = 0
		}
	} else {
		for i := w.lastWin + 1; i <= win; i++ {
			w.counts[i%int64(k)] = 0
		}
	}
	w.lastWin = win
}

func (w *winCounter) total(k int) int {
	t := 0
	for i := 0; i < k; i++ {
		t += int(w.counts[i])
	}
	return t
}

// CStats counts the sieve's internal traffic for reporting and tests.
type CStats struct {
	// Misses is the number of ShouldAllocate consultations.
	Misses int64
	// Promotions counts blocks promoted past the IMCT into the MCT.
	Promotions int64
	// Allocations counts positive ShouldAllocate decisions.
	Allocations int64
	// Pruned counts MCT entries discarded as stale.
	Pruned int64
	// MCTSize is the current precise-metastate footprint (entries).
	MCTSize int
}

// C is SieveStore-C's online sieve: hysteresis-based lazy allocation where
// only the n-th miss within the recent window triggers allocation, with the
// two-tier IMCT/MCT structure bounding the precise metastate (§3.3).
type C struct {
	cfg      CConfig
	subNanos int64
	imct     []winCounter
	mct      map[block.Key]*winCounter
	lastWin  int64
	stats    CStats
}

// NewC returns a SieveStore-C sieve with the given configuration.
func NewC(cfg CConfig) (*C, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &C{
		cfg:      cfg,
		subNanos: cfg.Window.Nanoseconds() / int64(cfg.Subwindows),
		imct:     make([]winCounter, cfg.IMCTSize),
		mct:      make(map[block.Key]*winCounter),
	}, nil
}

// Name implements Policy.
func (s *C) Name() string { return "SieveStore-C" }

// Config returns the sieve's configuration.
func (s *C) Config() CConfig { return s.cfg }

// Stats returns a snapshot of the sieve's counters.
func (s *C) Stats() CStats {
	st := s.stats
	st.MCTSize = len(s.mct)
	return st
}

// hash mixes a block key onto an IMCT slot (SplitMix64 finalizer).
func (s *C) hash(key block.Key) int {
	x := uint64(key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(s.imct)))
}

// ShouldAllocate implements Policy. On each miss the block's IMCT slot is
// bumped; once the (aliased) slot count reaches T1 the block is tracked
// precisely in the MCT, and once its precise count reaches T2 the block is
// allocated. Allocation resets the block's precise state.
func (s *C) ShouldAllocate(acc block.Access) bool {
	return s.ShouldAllocateN(acc, 0)
}

// ShouldAllocateN is ShouldAllocate with the allocation threshold raised
// by extra: the block allocates only once its precise count reaches
// T2+extra. The multi-tenant layer uses it to penalize (or, with an
// unreachable extra, effectively deny) a throttled tenant while its
// counters keep accumulating — window counters saturate at 65535, so an
// extra at or beyond that can never be crossed — and admission resumes at
// full speed the moment the penalty is lifted.
func (s *C) ShouldAllocateN(acc block.Access, extra int) bool {
	s.stats.Misses++
	win := acc.Time / s.subNanos
	s.maybePrune(win)
	slot := &s.imct[s.hash(acc.Key)]
	imctCount := slot.bump(win, s.cfg.Subwindows)
	entry, tracked := s.mct[acc.Key]
	if !tracked {
		if imctCount < s.cfg.T1 {
			return false
		}
		// Promotion: begin precise tracking. The promoting miss is the
		// block's first precisely-counted miss.
		entry = &winCounter{lastWin: win}
		s.mct[acc.Key] = entry
		s.stats.Promotions++
	}
	if entry.bump(win, s.cfg.Subwindows) < s.cfg.T2+extra {
		return false
	}
	delete(s.mct, acc.Key)
	s.stats.Allocations++
	return true
}

// maybePrune periodically sweeps stale MCT entries (the paper prunes the
// MCT to eliminate stale blocks). A full sweep runs once per subwindow
// advance, dropping entries idle for a whole window.
func (s *C) maybePrune(win int64) {
	if win == s.lastWin {
		return
	}
	s.lastWin = win
	for key, e := range s.mct {
		if win-e.lastWin >= int64(s.cfg.Subwindows) {
			delete(s.mct, key)
			s.stats.Pruned++
		}
	}
}
