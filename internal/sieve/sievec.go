package sieve

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/block"
)

// An IMCT slot (imctSlot) is one word: k ≤ maxSubwindows lanes of laneBits
// each in the low bits, lane i%k counting subwindow i's misses and
// saturating at laneCap, and in the top byte how many MCT-tracked keys hash
// to the slot — exactly, until that count reaches trackedMax and sticks —
// so a miss on a slot with none skips the MCT. An IMCT total is only ever
// compared with a threshold of at most laneCap (Validate, NewSingleTier),
// so a saturated lane decides exactly as an unbounded one would.
const (
	maxSubwindows = 8
	laneBits      = 7
	laneCap       = 1<<laneBits - 1
	trackedShift  = maxSubwindows * laneBits
	trackedMax    = 255
)

// CConfig parameterizes SieveStore-C's two-tier sieve (§3.3).
type CConfig struct {
	// IMCTSize is the number of slots in the imprecise miss-count table,
	// rounded up to whole lines of BlocksPerPage (pageSlot). Pages map
	// many-to-one onto lines, so counts may be aliased.
	IMCTSize int
	// T1 is the IMCT threshold: a block's (possibly aliased) slot must
	// have seen at least T1 misses in the window before the block is
	// promoted to precise tracking. The paper tunes T1 = 9; at most 127,
	// the IMCT lane cap.
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
	if c.T1 < 1 || c.T1 > laneCap || c.T2 < 1 {
		return fmt.Errorf("sieve: thresholds must be 1≤t1≤%d (the IMCT lane cap) and t2≥1, got t1=%d t2=%d", laneCap, c.T1, c.T2)
	}
	if c.Subwindows < 1 || c.Subwindows > maxSubwindows {
		return fmt.Errorf("sieve: Subwindows must be in [1,%d], got %d", maxSubwindows, c.Subwindows)
	}
	if c.Window <= 0 {
		return fmt.Errorf("sieve: Window must be positive")
	}
	return nil
}

type imctSlot uint64

// bump counts one miss in lane and returns the slot's total over the
// window: every lane at or past k stays zero, so that is all of them.
func (w *imctSlot) bump(lane uint) int {
	if *w>>(lane*laneBits)&laneCap != laneCap {
		*w += 1 << (lane * laneBits)
	}
	t := 0
	for x := *w &^ (trackedMax << trackedShift); x != 0; x >>= laneBits {
		t += int(x & laneCap)
	}
	return t
}

// track moves the slot's tracked count by d as a key that hashes to it
// enters or leaves the MCT. A saturated count stays saturated.
func (w *imctSlot) track(d int) {
	if *w>>trackedShift < trackedMax {
		*w += imctSlot(d) << trackedShift
	}
}

// mctLanes is one tracked block's precise count, laid out as an IMCT slot's
// lanes but 16 bits wide.
type mctLanes [maxSubwindows]uint16

// bump counts one miss in lane and returns the block's total.
func (l *mctLanes) bump(lane uint) int {
	if c := &l[lane]; *c < ^uint16(0) {
		*c++
	}
	t := 0
	for _, c := range l {
		t += int(c)
	}
	return t
}

// mctPage is the MCT record of a page with a tracked block: mask bit b is
// set while block b is, lanes[b] then its count and zero otherwise. line is
// the first slot of the page's IMCT line, for aging to find a block's slot.
type mctPage struct {
	lanes [block.BlocksPerPage]mctLanes
	page  block.Key
	line  uint32
	mask  uint8
}

// CStats counts the sieve's internal traffic for reporting and tests.
type CStats struct {
	// Misses is the number of ShouldAllocate consultations.
	Misses int64
	// Promotions counts blocks promoted past the IMCT into the MCT.
	Promotions int64
	// Allocations counts positive ShouldAllocate decisions.
	Allocations int64
	// Pruned counts tracked blocks discarded as stale.
	Pruned int64
	// MCTSize is the current precise-metastate footprint (tracked blocks).
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
// two-tier IMCT/MCT structure bounding the precise metastate (§3.3). Every
// lane is relative to lastWin, the newest subwindow seen, which counts in
// lane and ends at next. The MCT holds no pointer: the map gives a page's
// index in pages, which holds exactly the pages with a tracked block. The
// page last admitted to is cached: its IMCT line, and its index in pages,
// noRecord or, until an Admit needs it, unprobed (page 0's line is 0).
type C struct {
	cfg            CConfig
	subNanos, next int64
	lastWin        int64
	lane           uint
	imct           []imctSlot
	mct            map[block.Key]int32
	pages          []mctPage
	hotPage        block.Key
	hotLine        int
	hotRec         int32
	stats          CStats
}

const noRecord, unprobed = -1, -2

// NewC returns a SieveStore-C sieve with the given configuration.
func NewC(cfg CConfig) (*C, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sub := cfg.Window.Nanoseconds() / int64(cfg.Subwindows)
	return &C{
		cfg:      cfg,
		subNanos: sub,
		next:     sub,
		imct:     make([]imctSlot, (cfg.IMCTSize+block.BlocksPerPage-1)&^(block.BlocksPerPage-1)),
		mct:      make(map[block.Key]int32),
		hotRec:   unprobed,
	}, nil
}

// Name implements Policy.
func (s *C) Name() string { return "SieveStore-C" }

// Stats returns a snapshot of the sieve's counters.
func (s *C) Stats() CStats { return s.stats }

// pageLine is the first slot of key's page's line in an IMCT of n slots,
// whole 64-byte lines of BlocksPerPage: the SplitMix64 finalizer of the page
// number picks the line, a block's place in the page its slot there. A
// missed page costs one line, not eight.
func pageLine(key block.Key, n int) int {
	const b = block.BlocksPerPage
	x := uint64(key) / b
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x%uint64(n/b)) * b
}

// pageSlot is key's slot in an IMCT of n slots.
func pageSlot(key block.Key, n int) int { return pageLine(key, n) + int(key%block.BlocksPerPage) }

// slot is key's IMCT slot.
func (s *C) slot(key block.Key) *imctSlot { return &s.imct[pageSlot(key, len(s.imct))] }

// ShouldAllocate implements Policy: a run of one miss.
func (s *C) ShouldAllocate(acc block.Access) bool {
	return s.Begin(acc.Time).Admit(acc.Key, 0)
}

// Run is the sieve opened at one instant for a run of misses — the blocks
// one request missed in one shard. The subwindow is computed and the sieve
// aged once, at Begin; each Admit then costs, for a block the sieve rejects,
// one IMCT slot and nothing else, and a page's first Admit one hash.
type Run struct{ s *C }

// Begin opens a run at time t (nanoseconds on the caller's clock). At a
// subwindow advance it ages the whole sieve in one sweep: the entered
// subwindows' lanes are zeroed in every IMCT slot and tracked block, and a
// block left all zero — idle for a whole window — is dropped (the paper
// prunes the MCT to eliminate stale blocks), its page's record with the
// last of them. Records fallen below a quarter of their capacity are
// reallocated, and the map rebuilt, to the live set (indexes kept).
func (s *C) Begin(t int64) Run {
	if lanes := s.advance(t); lanes != 0 {
		for i := len(s.pages) - 1; i >= 0; i-- {
			p := &s.pages[i]
			for m := p.mask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros8(m)
				l := &p.lanes[b]
				for j := range l {
					if lanes>>j&1 != 0 {
						l[j] = 0
					}
				}
				if *l == (mctLanes{}) {
					s.untrack(p, b)
					s.stats.Pruned++
				}
			}
			if p.mask == 0 {
				s.dropPage(int32(i))
			}
		}
		if len(s.pages) < cap(s.pages)/4 { // neither shrinks by itself
			s.pages = slices.Clone(s.pages)
			s.mct = make(map[block.Key]int32, len(s.pages))
			for i := range s.pages {
				s.mct[s.pages[i].page] = int32(i)
			}
		}
	}
	return Run{s}
}

// advance moves the clock to time t's subwindow and zeroes, in every IMCT
// slot, the lanes of the subwindows entered — all k when the jump spans a
// window (the paper's rotating counters, aged eagerly). It returns those
// lanes as a bit set: none, at the cost of one comparison, when t is before
// next, the newest subwindow's end. A t behind the newest subwindow is
// clamped to it, so a late caller neither rewinds the lanes nor ages them
// twice for one boundary.
func (s *C) advance(t int64) (lanes uint) {
	if t < s.next {
		return 0
	}
	win, k := t/s.subNanos, int64(s.cfg.Subwindows)
	var cleared imctSlot
	for i := max(s.lastWin+1, win-k+1); i <= win; i++ {
		lanes |= 1 << (i % k)
		cleared |= laneCap << (i % k * laneBits)
	}
	if lanes != 0 {
		s.lastWin, s.lane, s.next = win, uint(win%k), (win+1)*s.subNanos
		for i := range s.imct {
			s.imct[i] &^= cleared
		}
	}
	return lanes
}

// Admit counts one missed block of the run and reports whether it is
// allocated. The block's IMCT slot is bumped; once the (aliased) slot count
// reaches T1 the block is tracked precisely in its page's MCT record (looked
// up once per run of Admits in one page, if a tracked block may be there),
// and once its precise count reaches T2+extra it is allocated, which resets
// its precise state. The multi-tenant layer uses extra to penalize a
// throttled tenant, or to deny it with an extra past any count
// (tenant.DenyPenalty, above the k·65535 an MCT total saturates at;
// TestDenyPenaltyOutlastsSaturation), while its counters keep accumulating,
// so admission resumes at full speed the moment the penalty is lifted.
func (r Run) Admit(key block.Key, extra int) bool {
	s := r.s
	s.stats.Misses++
	if page := key.Page(); page != s.hotPage {
		s.hotPage, s.hotLine, s.hotRec = page, pageLine(page, len(s.imct)), unprobed
	}
	b := int(key % block.BlocksPerPage)
	slot := &s.imct[s.hotLine+b]
	n := slot.bump(s.lane)
	if s.hotRec == unprobed && (*slot>>trackedShift != 0 || n >= s.cfg.T1) {
		s.hotRec = noRecord
		if i, ok := s.mct[s.hotPage]; ok {
			s.hotRec = i
		}
	}
	if s.hotRec < 0 || s.pages[s.hotRec].mask>>b&1 == 0 {
		if n < s.cfg.T1 {
			return false
		}
		// Promotion: begin precise tracking. The promoting miss is the
		// block's first precisely-counted miss.
		if s.hotRec < 0 {
			s.hotRec = int32(len(s.pages))
			s.pages = append(s.pages, mctPage{page: s.hotPage, line: uint32(s.hotLine)})
			s.mct[s.hotPage] = s.hotRec
		}
		s.pages[s.hotRec].mask |= 1 << b
		slot.track(1)
		s.stats.Promotions++
		s.stats.MCTSize++
	}
	p := &s.pages[s.hotRec]
	if p.lanes[b].bump(s.lane) < s.cfg.T2+extra {
		return false
	}
	s.untrack(p, b)
	if p.mask == 0 {
		s.dropPage(s.hotRec)
	}
	s.stats.Allocations++
	return true
}

// untrack forgets block b of page record p.
func (s *C) untrack(p *mctPage, b int) {
	p.lanes[b] = mctLanes{}
	p.mask &^= 1 << b
	s.imct[int(p.line)+b].track(-1)
	s.stats.MCTSize--
}

// dropPage forgets record i, which tracks no block, moving the last record
// into its place, so the cached record is probed again.
func (s *C) dropPage(i int32) {
	delete(s.mct, s.pages[i].page)
	if last := int32(len(s.pages) - 1); i != last {
		s.pages[i] = s.pages[last]
		s.mct[s.pages[i].page] = i
	}
	s.pages = s.pages[:len(s.pages)-1]
	s.hotRec = unprobed
}
