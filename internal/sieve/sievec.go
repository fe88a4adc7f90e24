package sieve

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/block"
)

// An IMCT slot is ⌈k/4⌉ uint32 words, k ≤ maxSubwindows: lane i%k, counting
// subwindow i's misses and saturating at laneCap, is laneBits at bit
// laneBits·(i%4) of word i/4, and the top nibble of word 0 holds how many
// MCT-tracked keys hash to the slot — exactly, until that count reaches
// trackedMax and sticks — so a miss on a slot with none skips the MCT. An
// IMCT total is only ever compared with a threshold of at most laneCap
// (Validate, NewSingleTier), so a saturated lane decides exactly as an
// unbounded one would.
const (
	maxSubwindows = 8
	laneBits      = 7
	laneCap       = 1<<laneBits - 1
	trackedShift  = 4 * laneBits
	trackedMax    = 15
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
	if c.Window.Nanoseconds() < int64(c.Subwindows) {
		return fmt.Errorf("sieve: Window must be at least a nanosecond a subwindow, got %v for %d", c.Window, c.Subwindows)
	}
	return nil
}

// bump counts one miss in the current lane of the IMCT slot whose words
// start at i.
func (s *C) bump(i int) {
	w, sh := &s.imct[i+int(s.lane/4)], s.lane%4*laneBits
	if *w>>sh&laneCap != laneCap {
		*w += 1 << sh
	}
}

// total is the window total of the IMCT slot whose words start at i: every
// lane at or past k stays zero, so that is all of them. In each word the
// odd lanes shift onto the even ones, making two 14-bit fields the tracked
// nibble falls outside, and the fields add: no branch on a count, only on k,
// which every call of a sieve takes the same way.
func (s *C) total(i int) int {
	const even = laneCap | laneCap<<14
	x := s.imct[i]&even + s.imct[i]>>laneBits&even
	if s.words > 1 {
		x += s.imct[i+1]&even + s.imct[i+1]>>laneBits&even
	}
	return int(x&(1<<14-1) + x>>14)
}

// track moves the tracked count of the IMCT slot whose words start at i by d
// as a key that hashes to it enters or leaves the MCT. A saturated count
// stays saturated.
func (s *C) track(i, d int) {
	if s.imct[i]>>trackedShift < trackedMax {
		s.imct[i] += uint32(d) << trackedShift
	}
}

// wordTotal sums an MCT lane word: four 16-bit saturating lanes, lane i of a
// tracked block's precise count in bits 16·(i%4) of its word i/4.
func wordTotal(w uint64) int {
	w = w&0x0000ffff0000ffff + w>>16&0x0000ffff0000ffff
	return int(w&0xffffffff + w>>32)
}

// mctPage is the MCT record of a page with a tracked block: mask bit b is
// set while block b is, its lanes then its count and zero otherwise. line is
// the first slot of the page's IMCT line, for aging to find a block's slot.
type mctPage struct {
	page block.Key
	line uint32
	mask uint8
}

// CStats counts the sieve's internal traffic for reporting and tests.
type CStats struct {
	// Misses counts Admit calls: one per missed block offered to the sieve,
	// in a Run that the store or the simulator's AdmitRun opened.
	Misses int64
	// Promotions counts blocks promoted past the IMCT into the MCT.
	Promotions int64
	// Allocations counts Admit calls that admitted their block.
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
// lane and ends at next. The MCT holds no pointer: pages holds exactly the
// pages with a tracked block; lanes, in step with it, words lane words for
// each of a record's blocks; and index, a linear-probing table at most half
// full, record numbers plus one (0 is empty) from each page's home slot. The
// page last admitted to is cached: its hash and IMCT line, and its record,
// noRecord (an empty slot's value less one) or, until an Admit needs it,
// unprobed (page 0's line is 0).
type C struct {
	cfg            CConfig
	subNanos, next int64
	lastWin        int64
	lane           uint
	words          int
	imct           []uint32
	pages          []mctPage
	lanes          []uint64
	index          []int32
	hotPage        block.Key
	hotHash        uint64
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
	sub, words := cfg.Window.Nanoseconds()/int64(cfg.Subwindows), (cfg.Subwindows+3)/4
	return &C{
		cfg:      cfg,
		subNanos: sub,
		next:     sub,
		words:    words,
		imct:     make([]uint32, (cfg.IMCTSize+block.BlocksPerPage-1)&^(block.BlocksPerPage-1)*words),
		index:    make([]int32, 1),
		hotRec:   unprobed,
	}, nil
}

// Name implements Policy.
func (s *C) Name() string { return "SieveStore-C" }

// Stats returns a snapshot of the sieve's counters.
func (s *C) Stats() CStats { return s.stats }

// pageHash is the SplitMix64 finalizer of key's page number: the one hash a
// missed page costs, which picks its IMCT line and its MCT index slot.
func pageHash(key block.Key) uint64 {
	x := uint64(key) / block.BlocksPerPage
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// lineOf is the first slot of the line that page hash h picks in an IMCT of
// n slots, whole lines of BlocksPerPage slots — 32 bytes at k ≤ 4, 64 at
// k ≤ 8; a block's place in the page is its slot there. A missed page costs
// one line, not eight.
func lineOf(h uint64, n int) int { return int(h%uint64(n/block.BlocksPerPage)) * block.BlocksPerPage }

// pageSlot is key's slot in an IMCT of n slots.
func pageSlot(key block.Key, n int) int {
	return lineOf(pageHash(key), n) + int(key%block.BlocksPerPage)
}

// slots is the number of IMCT slots, of words (1 or 2) words each.
func (s *C) slots() int { return len(s.imct) >> (s.words - 1) }

// slot is the first word of key's IMCT slot.
func (s *C) slot(key block.Key) int { return pageSlot(key, s.slots()) * s.words }

// AdmitRun implements Policy: one Begin at t, then one Admit a miss.
func (s *C) AdmitRun(t int64, _ block.Kind, misses []block.Key, dst []int) []int {
	run := s.Begin(t)
	return admitEach(misses, dst, func(key block.Key) bool { return run.Admit(key, false) })
}

// ShouldAllocate is a run of one miss at acc.Time (the bench module's probes).
func (s *C) ShouldAllocate(acc block.Access) bool {
	return s.Begin(acc.Time).Admit(acc.Key, false)
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
// reallocated, with their lanes, and reindexed, to the live set.
func (s *C) Begin(t int64) Run {
	if cleared := s.advance(t); cleared != ([2]uint64{}) {
		for j := range s.lanes { // an untracked block's words stay zero
			s.lanes[j] &^= cleared[j&(s.words-1)]
		}
		for i := len(s.pages) - 1; i >= 0; i-- {
			for m := s.pages[i].mask; m != 0; m &= m - 1 {
				b := bits.TrailingZeros8(m)
				if j := s.laneWord(int32(i), b); s.lanes[j]|s.lanes[j+s.words-1] == 0 {
					s.untrack(int32(i), b)
					s.stats.Pruned++
				}
			}
			if s.pages[i].mask == 0 {
				s.dropPage(int32(i))
			}
		}
		if len(s.pages) < cap(s.pages)/4 { // neither shrinks by itself
			s.pages, s.lanes = slices.Clone(s.pages), slices.Clone(s.lanes)
			s.reindex()
		}
	}
	return Run{s}
}

// advance moves the clock to time t's subwindow and zeroes, in every IMCT
// slot, the lanes of the subwindows entered — all k when the jump spans a
// window (the paper's rotating counters, aged eagerly). It returns those
// lanes' bits in a tracked block's MCT lane words: none, at the cost of one
// comparison, when t is before next, the newest subwindow's end. A t behind
// the newest subwindow is clamped to it, so a late caller neither rewinds
// the lanes nor ages them twice for one boundary.
func (s *C) advance(t int64) (mct [2]uint64) {
	if t < s.next {
		return mct
	}
	win, k := t/s.subNanos, int64(s.cfg.Subwindows)
	var cleared [2]uint32
	for i := max(s.lastWin+1, win-k+1); i <= win; i++ {
		mct[i%k/4] |= 0xffff << (i % k % 4 * 16)
		cleared[i%k/4] |= laneCap << (i % k % 4 * laneBits)
	}
	if cleared != ([2]uint32{}) {
		s.lastWin, s.lane, s.next = win, uint(win%k), (win+1)*s.subNanos
		for i := range s.imct {
			s.imct[i] &^= cleared[i&(s.words-1)]
		}
	}
	return mct
}

// Admit counts one missed block of the run and reports whether it is
// allocated. The block's IMCT slot is bumped; once the (aliased) slot count
// reaches T1 the block is tracked precisely in its page's MCT record (looked
// up once per run of Admits in one page, if a tracked block may be there),
// and once its precise count reaches T2 it is allocated, which resets its
// precise state. The multi-tenant layer denies a block of a tenant over its
// quota: the miss is counted all the same, and the block is just never
// allocated, so it admits on its first undenied miss at or past T2.
func (r Run) Admit(key block.Key, deny bool) bool {
	s := r.s
	s.stats.Misses++
	if page := key.Page(); page != s.hotPage {
		s.hotPage, s.hotHash, s.hotRec = page, pageHash(page), unprobed
		s.hotLine = lineOf(s.hotHash, s.slots())
	}
	b := int(key % block.BlocksPerPage)
	slot := (s.hotLine + b) * s.words
	s.bump(slot)
	n := s.total(slot)
	if s.hotRec == unprobed && (s.imct[slot]>>trackedShift != 0 || n >= s.cfg.T1) {
		s.hotRec = s.index[s.find(s.hotPage, s.hotHash)] - 1
	}
	if s.hotRec < 0 || s.pages[s.hotRec].mask>>b&1 == 0 {
		if n < s.cfg.T1 {
			return false
		}
		// Promotion: begin precise tracking. The promoting miss is the
		// block's first precisely-counted miss.
		if s.hotRec < 0 {
			s.hotRec = s.addPage(s.hotPage, s.hotHash, s.hotLine)
		}
		s.pages[s.hotRec].mask |= 1 << b
		s.track(slot, 1)
		s.stats.Promotions++
		s.stats.MCTSize++
	}
	if s.bumpLanes(s.laneWord(s.hotRec, b)) < s.cfg.T2 || deny {
		return false
	}
	s.untrack(s.hotRec, b)
	if s.pages[s.hotRec].mask == 0 {
		s.dropPage(s.hotRec)
	}
	s.stats.Allocations++
	return true
}

// laneWord is the first lane word of block b of record i.
func (s *C) laneWord(i int32, b int) int { return (int(i)*block.BlocksPerPage + b) * s.words }

// bumpLanes counts a miss in the current lane of the tracked block whose words
// start at j and returns its total, with no branch: the last word counts words-1 times.
func (s *C) bumpLanes(j int) int {
	w, sh := &s.lanes[j+int(s.lane/4)], s.lane%4*16
	if *w>>sh&0xffff != 0xffff {
		*w += 1 << sh
	}
	return wordTotal(s.lanes[j]) + (s.words-1)*wordTotal(s.lanes[j+s.words-1])
}

// untrack forgets block b of record i.
func (s *C) untrack(i int32, b int) {
	j, p := s.laneWord(i, b), &s.pages[i]
	clear(s.lanes[j : j+s.words])
	p.mask &^= 1 << b
	s.track((int(p.line)+b)*s.words, -1)
	s.stats.MCTSize--
}

// home is the index slot where a page of hash h starts its probe: the top
// bits, as the low ones pick its IMCT line, which T1 passes crowd onto.
func (s *C) home(h uint64) int { return int(h >> (64 - bits.TrailingZeros(uint(len(s.index))))) }

// find is the index slot of page, of hash h, or the empty one ending its run.
func (s *C) find(page block.Key, h uint64) int {
	for i := s.home(h); ; i = (i + 1) & (len(s.index) - 1) {
		if r := s.index[i]; r == 0 || s.pages[r-1].page == page {
			return i
		}
	}
}

// addPage appends a record, with zero lanes, for page, of hash h and IMCT
// line, and indexes it, doubling the index rather than fill it past half.
func (s *C) addPage(page block.Key, h uint64, line int) int32 {
	s.pages = append(s.pages, mctPage{page: page, line: uint32(line)})
	s.lanes = append(s.lanes, make([]uint64, block.BlocksPerPage*s.words)...)
	if 2*len(s.pages) > len(s.index) {
		s.reindex()
	} else {
		s.index[s.find(page, h)] = int32(len(s.pages))
	}
	return int32(len(s.pages) - 1)
}

// reindex rebuilds the index at the least power of two past twice the records.
func (s *C) reindex() {
	s.index = make([]int32, 1<<bits.Len(uint(2*len(s.pages))))
	for i, p := range s.pages {
		s.index[s.find(p.page, pageHash(p.page))] = int32(i) + 1
	}
}

// dropPage forgets record i, which tracks no block: its index entry leaves
// by backward shift, and the last record, its lanes and its entry move into
// its place, so the cached record is probed again.
func (s *C) dropPage(i int32) {
	s.unindex(s.find(s.pages[i].page, pageHash(s.pages[i].page)))
	if last := int32(len(s.pages) - 1); i != last {
		s.pages[i] = s.pages[last]
		s.index[s.find(s.pages[i].page, pageHash(s.pages[i].page))] = i + 1
		copy(s.lanes[s.laneWord(i, 0):], s.lanes[s.laneWord(last, 0):])
	}
	s.pages, s.lanes = s.pages[:len(s.pages)-1], s.lanes[:len(s.lanes)-block.BlocksPerPage*s.words]
	s.hotRec = unprobed
}

// unindex empties index slot i, moving back into the hole each later entry
// of its probe run whose home is not past the hole, so no run has a gap.
func (s *C) unindex(i int) {
	m := len(s.index) - 1
	for j := (i + 1) & m; s.index[j] != 0; j = (j + 1) & m {
		if h := s.home(pageHash(s.pages[s.index[j]-1].page)); (j-h)&m >= (j-i)&m {
			s.index[i], i = s.index[j], j
		}
	}
	s.index[i] = 0
}
