package cache

import "repro/internal/block"

// Order is a replacement engine over dense slot numbers instead of keys:
// the Cache that owns it maps keys to slots once, and everything that is
// per-block thereafter — recency links here, frames and dirty bits in
// internal/core — is an array indexed by slot. An Order only
// ranks; the Cache counts residents and evicts Victim when it is full.
type Order interface {
	Name() string
	// TouchRun notes hits on the resident blocks lo…hi-1 of a page, in
	// block order, exactly as one hit on each in turn would. page holds by
	// block, as a Cache.Page entry does, each slot plus one.
	TouchRun(page [block.BlocksPerPage]uint32, lo, hi int)
	// Insert makes slot resident as the newest.
	Insert(slot uint32)
	// Victim is the slot to evict next. It may make the state changes the
	// eviction itself makes — SIEVE's hand clears visited bits, CLOCK
	// requeues visited slots, S3-FIFO promotes and decays — but leaves the
	// victim next, so asking twice names the same slot.
	Victim() (slot uint32, ok bool)
	// Remove drops a resident slot, repairing any cursor on it (S3-FIFO's
	// ghost remembers one leaving its small queue).
	Remove(slot uint32)
	// AppendSlots appends the resident slots, hottest first.
	AppendSlots(dst []uint32) []uint32
}

// slotList is a circular doubly-linked list threaded through one slice of
// uint32 pairs. Entry 0 is the sentinel and slot s lives at entry s+1, so
// links[0].next is the newest slot's entry, links[0].prev the oldest's,
// and following prev walks toward newer entries. The slice grows with the
// highest slot seen; nothing is allocated per block.
type slotList struct{ links []slotLink }

type slotLink struct{ prev, next uint32 }

func newSlotList() slotList { return slotList{links: make([]slotLink, 1)} }

// moveFront moves the segment that runs from entry first to entry last,
// following next, to the front; nothing moves when first is there already.
func (l *slotList) moveFront(first, last uint32) {
	if l.links[0].next == first {
		return
	}
	prev, next := l.links[first].prev, l.links[last].next
	l.links[prev].next, l.links[next].prev = next, prev
	head := l.links[0].next
	l.links[first].prev, l.links[last].next = 0, head
	l.links[head].prev, l.links[0].next = last, first
}

func (l *slotList) unlink(e uint32) {
	k := l.links[e]
	l.links[k.prev].next = k.next
	l.links[k.next].prev = k.prev
}

// oldest returns the entry at the back, 0 when the list is empty.
func (l *slotList) oldest() uint32 { return l.links[0].prev }

func (l *slotList) pushFront(e uint32) {
	for int(e) >= len(l.links) {
		l.links = append(l.links, slotLink{})
	}
	first := l.links[0].next
	l.links[e] = slotLink{prev: 0, next: first}
	l.links[first].prev = e
	l.links[0].next = e
}

func (l *slotList) appendSlots(dst []uint32) []uint32 {
	for e := l.links[0].next; e != 0; e = l.links[e].next {
		dst = append(dst, e-1)
	}
	return dst
}

// lruOrder is exact LRU: a hit moves the slot to the front, the victim is
// the back.
type lruOrder struct{ l slotList }

func (o *lruOrder) Name() string { return "LRU" }

// TouchRun leaves the run at the front, its last block newest and its first
// the oldest of them, as moving each block to the front in turn would. A run
// that already lies so in the list as one segment — each block's entry
// followed by the previous block's — is spliced to the front whole, and
// stays put when it leads already; any other run is moved a block at a time.
func (o *lruOrder) TouchRun(page [block.BlocksPerPage]uint32, lo, hi int) {
	for b := lo + 1; b < hi; b++ {
		if o.l.links[page[b]].next != page[b-1] {
			for _, e := range page[lo:hi] {
				o.l.moveFront(e, e)
			}
			return
		}
	}
	o.l.moveFront(page[hi-1], page[lo])
}

func (o *lruOrder) Insert(slot uint32) { o.l.pushFront(slot + 1) }

func (o *lruOrder) Victim() (uint32, bool) { return o.l.oldest() - 1, o.l.oldest() != 0 }

func (o *lruOrder) Remove(slot uint32) { o.l.unlink(slot + 1) }

func (o *lruOrder) AppendSlots(dst []uint32) []uint32 { return o.l.appendSlots(dst) }

// sieveOrder implements the SIEVE replacement policy (Zhang et al.,
// NSDI'24): a FIFO-ordered list with one visited bit per block and a lazy
// eviction hand. Hits set the visited bit and nothing else — no list
// surgery, no promotion — which is what makes SIEVE's hit path cheaper
// than LRU's under a lock. The hand sweeps from the oldest block toward
// the newest, clearing visited bits, and evicts the first unvisited block
// it meets; new blocks enter at the head (newest). Retained blocks
// therefore need a touch per hand lap to survive, a "quick demotion" that
// composes well with SieveStore's selective allocation: the sieve admits
// only hot blocks, so cheap, promotion-free replacement gives up almost
// nothing (the golden-trace suite pins the hit-ratio gap to LRU at under
// 1%).
type sieveOrder struct {
	l       slotList
	visited []bool // by list entry, like links
	// hand is the entry the eviction scan rests on; 0 means start at the
	// oldest. It always names a live entry (Remove repairs it).
	hand uint32
}

func (o *sieveOrder) Name() string { return "SIEVE" }

// TouchRun sets the run's visited bits; a run of one (Cache.Hit) skips the
// loop.
func (o *sieveOrder) TouchRun(page [block.BlocksPerPage]uint32, lo, hi int) {
	if hi == lo+1 {
		o.visited[page[lo]] = true
		return
	}
	for _, e := range page[lo:hi] {
		o.visited[e] = true
	}
}

func (o *sieveOrder) Insert(slot uint32) {
	o.l.pushFront(slot + 1)
	o.setVisited(slot+1, false)
}

// setVisited grows the bit slice alongside the list's links.
func (o *sieveOrder) setVisited(e uint32, v bool) {
	for len(o.visited) < len(o.l.links) {
		o.visited = append(o.visited, false)
	}
	o.visited[e] = v
}

// Victim locates the eviction victim: starting at the hand (or the oldest
// block), it clears visited bits while moving toward newer blocks,
// wrapping to the oldest when it passes the newest, and stops at the
// first unvisited block, with the hand left ON it. Terminates because
// every step either clears a bit or lands on an already-clear block.
func (o *sieveOrder) Victim() (uint32, bool) {
	e := o.hand
	if e == 0 {
		e = o.l.oldest()
	}
	if e == 0 {
		return 0, false
	}
	for o.visited[e] {
		o.visited[e] = false
		if e = o.l.links[e].prev; e == 0 {
			e = o.l.oldest()
		}
	}
	o.hand = e
	return e - 1, true
}

// Remove moves a hand resting on the slot toward newer blocks, as a sweep
// would; past the newest it falls back to "start at the oldest".
func (o *sieveOrder) Remove(slot uint32) {
	e := slot + 1
	if o.hand == e {
		o.hand = o.l.links[e].prev
	}
	o.l.unlink(e)
}

// AppendSlots lists newest-first (insertion order; the hand's sweep region
// sits at the tail end).
func (o *sieveOrder) AppendSlots(dst []uint32) []uint32 { return o.l.appendSlots(dst) }

// fifoOrder is FIFO: hits move nothing, and the victim is the oldest.
type fifoOrder struct{ lruOrder }

func (o *fifoOrder) Name() string { return "FIFO" }

func (o *fifoOrder) TouchRun([block.BlocksPerPage]uint32, int, int) {}

// clockOrder is CLOCK, second-chance LRU: SIEVE's visited bits on a list
// whose oldest entry is the one under the hand. Victim requeues a visited
// entry newest with its bit cleared, as the passing hand would; a new entry,
// like the ring frame it fills, is newest and unvisited until a hit.
type clockOrder struct{ sieveOrder }

func (o *clockOrder) Name() string { return "CLOCK" }

func (o *clockOrder) Victim() (uint32, bool) {
	e := o.l.oldest()
	for ; e != 0 && o.visited[e]; e = o.l.oldest() {
		o.visited[e] = false
		o.l.moveFront(e, e)
	}
	return e - 1, e != 0
}

// s3fifoOrder is S3-FIFO (Yang et al., SOSP'23): a small probationary FIFO,
// a main FIFO, and a ghost of keys recently evicted from small. Hits only
// bump a 2-bit counter; Victim promotes small's accessed tail and evicts its
// unaccessed one, and a miss the ghost remembers enters main. The ghost is
// keyed, as its blocks hold no slot: key (Cache.Key, wired by NewS3FIFO)
// names a slot's block from before Insert through Remove.
type s3fifoOrder struct {
	small, main        slotList
	nSmall, nMain      int
	smallCap, ghostCap int
	freq               []uint8 // by entry, saturating at 3
	inMain             []bool  // by entry
	key                func(slot uint32) block.Key
	// ghost maps a remembered key to the seq of its live ghostQ entry; a
	// readmitted key leaves its entry stale rather than splice the queue.
	ghost     map[block.Key]uint64
	ghostQ    []ghostEntry
	ghostHead int
	ghostSeq  uint64
}

type ghostEntry struct {
	key block.Key
	seq uint64
}

func (o *s3fifoOrder) Name() string { return "S3-FIFO" }

func (o *s3fifoOrder) TouchRun(page [block.BlocksPerPage]uint32, lo, hi int) {
	for _, e := range page[lo:hi] {
		o.freq[e] = min(o.freq[e]+1, 3)
	}
}

// Insert enters a block the ghost remembers into main, any other into
// small.
func (o *s3fifoOrder) Insert(slot uint32) {
	e, k := slot+1, o.key(slot)
	for int(e) >= len(o.freq) {
		o.freq, o.inMain = append(o.freq, 0), append(o.inMain, false)
	}
	_, ghosted := o.ghost[k]
	delete(o.ghost, k)
	o.freq[e] = 0
	o.push(e, ghosted)
}

func (o *s3fifoOrder) push(e uint32, main bool) {
	if o.inMain[e] = main; main {
		o.main.pushFront(e)
		o.nMain++
	} else {
		o.small.pushFront(e)
		o.nSmall++
	}
}

// Victim promotes small's accessed tail to main, and requeues main's with
// its counter decayed, until the queue it evicts from has an unaccessed
// tail, and names that. Each pass moves an entry out of small or
// decrements a counter, so it terminates.
func (o *s3fifoOrder) Victim() (uint32, bool) {
	for {
		if o.nSmall >= o.smallCap || o.nMain == 0 {
			e := o.small.oldest()
			if e == 0 || o.freq[e] == 0 {
				return e - 1, e != 0
			}
			o.small.unlink(e)
			o.nSmall--
			o.freq[e] = 0
			o.push(e, true)
		} else if e := o.main.oldest(); o.freq[e] == 0 {
			return e - 1, true
		} else {
			o.freq[e]--
			o.main.moveFront(e, e)
		}
	}
}

// Remove drops a slot, remembering one that leaves small in the ghost.
func (o *s3fifoOrder) Remove(slot uint32) {
	if e := slot + 1; o.inMain[e] {
		o.main.unlink(e)
		o.nMain--
	} else {
		o.small.unlink(e)
		o.nSmall--
		o.ghostAdd(o.key(slot))
	}
}

// ghostAdd remembers k, forgetting the oldest keys beyond ghostCap, and
// rewrites the queue without its drained prefix and stale entries once
// either dominates, so it stays O(capacity).
func (o *s3fifoOrder) ghostAdd(k block.Key) {
	if _, ok := o.ghost[k]; ok {
		return
	}
	o.ghostSeq++
	o.ghost[k] = o.ghostSeq
	o.ghostQ = append(o.ghostQ, ghostEntry{key: k, seq: o.ghostSeq})
	for len(o.ghost) > o.ghostCap {
		if g := o.ghostQ[o.ghostHead]; o.ghost[g.key] == g.seq {
			delete(o.ghost, g.key)
		}
		o.ghostHead++
	}
	if o.ghostHead*2 >= len(o.ghostQ) && o.ghostHead > 0 || len(o.ghostQ) >= 2*o.ghostCap {
		live := o.ghostQ[:0]
		for _, g := range o.ghostQ[o.ghostHead:] {
			if o.ghost[g.key] == g.seq {
				live = append(live, g)
			}
		}
		o.ghostQ, o.ghostHead = live, 0
	}
}

// AppendSlots lists main, then small, each newest first.
func (o *s3fifoOrder) AppendSlots(dst []uint32) []uint32 {
	return o.small.appendSlots(o.main.appendSlots(dst))
}
