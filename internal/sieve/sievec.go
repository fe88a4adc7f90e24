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

// A winCounter's last word holds its newest subwindow in the low winBits —
// compared modulo 2^winBits, exact for a counter idle under 2^55
// subwindows — and, in an IMCT slot, a tracked count in the byte above.
const (
	winBits    = 56
	winMask    = 1<<winBits - 1
	trackedMax = 255
)

// winCounter tracks misses over the last k subwindows with rotating
// counters (§3.3): counter i%k holds subwindow i's count; when time
// advances, stale counters are zeroed lazily.
type winCounter struct {
	counts [maxSubwindows]uint16
	// last: the newest subwindow seen and, in an IMCT slot, how many
	// MCT-tracked keys hash to the slot — exactly, until the count reaches
	// trackedMax and sticks — so a miss on a slot with none skips the MCT.
	last uint64
}

// bump advances the counter to subwindow win, adds one miss, and returns
// the total count over the window. Counters for subwindows that have fallen
// out of the window are zeroed; a counter idle for ≥ k subwindows is all
// stale (the paper's last-updated check). A win behind the newest seen —
// two callers racing a subwindow boundary — counts in the newest: rewinding
// would make the next in-order miss zero the live subwindow.
func (w *winCounter) bump(win int64, k int) int {
	switch d := w.age(win); {
	case d < 0:
		win -= d
	case d >= int64(k):
		w.counts = [maxSubwindows]uint16{}
	default:
		for i := win - d + 1; i <= win; i++ {
			w.counts[i%int64(k)] = 0
		}
	}
	w.last = w.last&^winMask | uint64(win)&winMask
	if c := &w.counts[win%int64(k)]; *c < ^uint16(0) {
		*c++
	}
	t := 0
	for _, c := range w.counts[:k] {
		t += int(c)
	}
	return t
}

// age is how many subwindows win is ahead of the newest this counter has
// seen; negative when it is behind.
func (w *winCounter) age(win int64) int64 {
	return (win<<(64-winBits) - int64(w.last<<(64-winBits))) >> (64 - winBits)
}

// track moves an IMCT slot's tracked count by d as a key that hashes to it
// enters or leaves the MCT. A saturated count stays saturated.
func (w *winCounter) track(d int64) {
	if w.last>>winBits < trackedMax {
		w.last += uint64(d) << winBits
	}
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

// Add sums o into s — the shards of a store each run their own sieve.
func (s *CStats) Add(o CStats) {
	s.Misses += o.Misses
	s.Promotions += o.Promotions
	s.Allocations += o.Allocations
	s.Pruned += o.Pruned
	s.MCTSize += o.MCTSize
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

// Stats returns a snapshot of the sieve's counters.
func (s *C) Stats() CStats {
	st := s.stats
	st.MCTSize = len(s.mct)
	return st
}

// slotOf mixes a block key onto one of n IMCT slots (SplitMix64 finalizer).
func slotOf(key block.Key, n int) int {
	x := uint64(key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// ShouldAllocate implements Policy: a run of one miss.
func (s *C) ShouldAllocate(acc block.Access) bool {
	return s.ShouldAllocateN(acc, 0)
}

// ShouldAllocateN is ShouldAllocate with Run.Admit's extra.
func (s *C) ShouldAllocateN(acc block.Access, extra int) bool {
	return s.Begin(acc.Time).Admit(acc.Key, extra)
}

// Run is the sieve opened at one instant for a run of misses — the blocks
// one request missed in one shard. The subwindow is computed and the MCT
// prune checked once, at Begin; each Admit then costs one hash and, for a
// block the sieve rejects, touches one IMCT slot and nothing else.
type Run struct {
	s   *C
	win int64
}

// Begin opens a run at time t (nanoseconds on the caller's clock). The full
// MCT sweep (the paper prunes the MCT to eliminate stale blocks) runs once
// per subwindow advance, dropping entries idle for a whole window; a t
// behind the newest subwindow seen is clamped to it, so the sweep cannot
// run twice for one boundary.
func (s *C) Begin(t int64) Run {
	win := t / s.subNanos
	if win > s.lastWin {
		s.lastWin = win
		for key, e := range s.mct {
			if e.age(win) >= int64(s.cfg.Subwindows) {
				s.drop(key, &s.imct[slotOf(key, len(s.imct))])
				s.stats.Pruned++
			}
		}
	}
	return Run{s, s.lastWin}
}

// Admit counts one missed block of the run and reports whether it is
// allocated. The block's IMCT slot is bumped; once the (aliased) slot count
// reaches T1 the block is tracked precisely in the MCT, and once its
// precise count reaches T2+extra it is allocated, which resets its precise
// state. The multi-tenant layer uses extra to penalize (or, with an
// unreachable extra, effectively deny) a throttled tenant while its
// counters keep accumulating — window counters saturate at 65535, so an
// extra at or beyond that can never be crossed — and admission resumes at
// full speed the moment the penalty is lifted.
func (r Run) Admit(key block.Key, extra int) bool {
	s := r.s
	s.stats.Misses++
	slot := &s.imct[slotOf(key, len(s.imct))]
	imctCount := slot.bump(r.win, s.cfg.Subwindows)
	var entry *winCounter
	if slot.last>>winBits != 0 {
		entry = s.mct[key]
	}
	if entry == nil {
		if imctCount < s.cfg.T1 {
			return false
		}
		// Promotion: begin precise tracking. The promoting miss is the
		// block's first precisely-counted miss.
		entry = &winCounter{last: uint64(r.win) & winMask}
		s.mct[key] = entry
		slot.track(1)
		s.stats.Promotions++
	}
	if entry.bump(r.win, s.cfg.Subwindows) < s.cfg.T2+extra {
		return false
	}
	s.drop(key, slot)
	s.stats.Allocations++
	return true
}

// drop forgets a tracked key, whose IMCT slot is slot.
func (s *C) drop(key block.Key, slot *winCounter) {
	delete(s.mct, key)
	slot.track(-1)
}
