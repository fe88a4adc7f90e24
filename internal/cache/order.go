package cache

// Order is a replacement engine over dense slot numbers instead of keys:
// the Cache that owns it maps keys to slots once, and everything that is
// per-block thereafter — recency links here, frames and dirty bits in
// internal/core — is an array indexed by slot. An Order only
// ranks; the Cache counts residents and evicts Victim when it is full.
type Order interface {
	Name() string
	// Touch notes a hit on a resident slot.
	Touch(slot uint32)
	// Insert makes slot resident as the newest.
	Insert(slot uint32)
	// Victim is the slot to evict next. Policies that approximate recency
	// with a sweeping cursor (SIEVE) may advance it and clear visited bits
	// on the way — the state changes the eviction itself makes — and
	// leave it on the victim, so asking twice names the same slot.
	Victim() (slot uint32, ok bool)
	// Remove drops a resident slot, repairing any cursor on it.
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

func (o *lruOrder) Touch(slot uint32) {
	if e := slot + 1; o.l.links[0].next != e {
		o.l.unlink(e)
		o.l.pushFront(e)
	}
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

func (o *sieveOrder) Touch(slot uint32) { o.visited[slot+1] = true }

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
