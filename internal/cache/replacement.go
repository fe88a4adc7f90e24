package cache

import "repro/internal/block"

// TagStore is the replacement-policy-agnostic cache interface the
// simulator drives. Cache (LRU or SIEVE), S3FIFO, FIFO and Clock all
// satisfy it; the §3.1 replacement ablation swaps them under identical
// allocation policies to show that no replacement policy rescues unsieved
// ensemble caching — the allocation-write and pollution problems are the
// allocation policy's.
//
// Duplicate-insert contract: Insert on an already-resident key updates
// the policy's hit state exactly as Touch would (LRU promotes to MRU,
// SIEVE sets the visited bit, S3-FIFO bumps the frequency counter, CLOCK
// sets the reference bit, FIFO does nothing), allocates no frame, evicts
// nothing, and returns (0, false). Every implementation in this package
// follows it, so the ablation compares replacement policies rather than
// accidental duplicate-insert semantics; TestDuplicateInsertSemantics
// enforces it across all engines.
type TagStore interface {
	// Name identifies the replacement policy.
	Name() string
	// Touch looks up key and notes a hit; reports residency.
	Touch(key block.Key) bool
	// Contains reports residency without touching.
	Contains(key block.Key) bool
	// Insert allocates a frame, evicting a victim when full. Resident
	// keys follow the duplicate-insert contract above.
	Insert(key block.Key) (evicted block.Key, wasEvicted bool)
	// Len and Capacity report occupancy.
	Len() int
	Capacity() int
}

var _ TagStore = (*Cache)(nil)

// fifoEntry is a queue slot; it is live iff the table still maps its key
// to its sequence number (Remove leaves stale slots behind rather than
// splicing the queue).
type fifoEntry struct {
	key block.Key
	seq uint64
}

// FIFO is a first-in-first-out tag store: eviction order is insertion
// order; hits do not refresh a block's position. The queue is compacted
// whenever the drained prefix or stale slots dominate, keeping resident
// memory O(capacity) — two queue lengths at most — rather than growing
// with the eviction count.
type FIFO struct {
	capacity int
	table    map[block.Key]uint64
	queue    []fifoEntry
	head     int
	nextSeq  uint64
}

// NewFIFO returns a FIFO tag store with the given capacity in blocks.
func NewFIFO(capacity int) *FIFO {
	if capacity < 1 {
		panic("cache: FIFO capacity must be ≥1")
	}
	return &FIFO{capacity: capacity, table: make(map[block.Key]uint64)}
}

// Name implements TagStore.
func (f *FIFO) Name() string { return "FIFO" }

// Touch implements TagStore (hits do not affect FIFO order).
func (f *FIFO) Touch(key block.Key) bool {
	_, ok := f.table[key]
	return ok
}

// Contains implements TagStore.
func (f *FIFO) Contains(key block.Key) bool {
	_, ok := f.table[key]
	return ok
}

// Len implements TagStore.
func (f *FIFO) Len() int { return len(f.table) }

// Capacity implements TagStore.
func (f *FIFO) Capacity() int { return f.capacity }

// Insert implements TagStore. Inserting a resident key is a no-op — the
// Touch-equivalent under FIFO, where hits do not move blocks.
func (f *FIFO) Insert(key block.Key) (block.Key, bool) {
	if _, ok := f.table[key]; ok {
		return 0, false
	}
	var evicted block.Key
	var wasEvicted bool
	if len(f.table) >= f.capacity {
		// Pop the oldest live entry, skipping slots staled by Remove.
		for {
			e := f.queue[f.head]
			f.head++
			if f.table[e.key] == e.seq {
				delete(f.table, e.key)
				evicted, wasEvicted = e.key, true
				break
			}
		}
	}
	f.nextSeq++
	f.table[key] = f.nextSeq
	f.queue = append(f.queue, fifoEntry{key: key, seq: f.nextSeq})
	f.compact()
	return evicted, wasEvicted
}

// compact rewrites the queue without the drained prefix and stale slots
// once either could dominate, bounding the queue to < 2×capacity slots.
func (f *FIFO) compact() {
	if f.head == 0 && len(f.queue) < 2*f.capacity {
		return
	}
	if f.head*2 < len(f.queue) && len(f.queue) < 2*f.capacity {
		return
	}
	live := f.queue[:0]
	for _, e := range f.queue[f.head:] {
		if f.table[e.key] == e.seq {
			live = append(live, e)
		}
	}
	f.queue = live
	f.head = 0
}

// Victim implements Policy: the oldest live entry.
func (f *FIFO) Victim() (block.Key, bool) {
	for f.head < len(f.queue) {
		e := f.queue[f.head]
		if f.table[e.key] == e.seq {
			return e.key, true
		}
		f.head++
	}
	return 0, false
}

// Remove implements Policy. The queue slot goes stale and is reclaimed by
// the next compaction.
func (f *FIFO) Remove(key block.Key) bool {
	if _, ok := f.table[key]; !ok {
		return false
	}
	delete(f.table, key)
	return true
}

// Keys implements Policy: live entries newest-first.
func (f *FIFO) Keys() []block.Key {
	out := make([]block.Key, 0, len(f.table))
	for i := len(f.queue) - 1; i >= f.head; i-- {
		e := f.queue[i]
		if f.table[e.key] == e.seq {
			out = append(out, e.key)
		}
	}
	return out
}

// Swap implements Policy via the generic path.
func (f *FIFO) Swap(keys []block.Key) (moved int, evicted []block.Key, overflow int) {
	return swapTags(f, keys)
}

var _ TagStore = (*FIFO)(nil)

// Clock is the classic second-chance approximation of LRU: a circular
// buffer of frames with reference bits; the hand sweeps past referenced
// frames (clearing their bit) and evicts the first unreferenced one.
type Clock struct {
	capacity int
	frames   []clockFrame
	index    map[block.Key]int
	hand     int
}

type clockFrame struct {
	key        block.Key
	referenced bool
	used       bool
}

// NewClock returns a Clock tag store with the given capacity in blocks.
func NewClock(capacity int) *Clock {
	if capacity < 1 {
		panic("cache: Clock capacity must be ≥1")
	}
	return &Clock{
		capacity: capacity,
		frames:   make([]clockFrame, capacity),
		index:    make(map[block.Key]int),
	}
}

// Name implements TagStore.
func (c *Clock) Name() string { return "CLOCK" }

// Touch implements TagStore.
func (c *Clock) Touch(key block.Key) bool {
	i, ok := c.index[key]
	if !ok {
		return false
	}
	c.frames[i].referenced = true
	return true
}

// Contains implements TagStore.
func (c *Clock) Contains(key block.Key) bool {
	_, ok := c.index[key]
	return ok
}

// Len implements TagStore.
func (c *Clock) Len() int { return len(c.index) }

// Capacity implements TagStore.
func (c *Clock) Capacity() int { return c.capacity }

// Insert implements TagStore. New frames are installed with the reference
// bit clear: a block earns its second chance by being touched after
// insertion. (Installing referenced frames would make every insertion
// sweep clear the whole ring and degrade CLOCK to FIFO under allocation
// storms — exactly the regime unsieved policies create.)
func (c *Clock) Insert(key block.Key) (block.Key, bool) {
	if i, ok := c.index[key]; ok {
		c.frames[i].referenced = true
		return 0, false
	}
	// Free frame available?
	if len(c.index) < c.capacity {
		for i := range c.frames {
			slot := (c.hand + i) % c.capacity
			if !c.frames[slot].used {
				c.frames[slot] = clockFrame{key: key, used: true}
				c.index[key] = slot
				return 0, false
			}
		}
	}
	// Sweep for a victim.
	for {
		f := &c.frames[c.hand]
		if f.referenced {
			f.referenced = false
			c.hand = (c.hand + 1) % c.capacity
			continue
		}
		evicted := f.key
		delete(c.index, evicted)
		*f = clockFrame{key: key, used: true}
		c.index[key] = c.hand
		c.hand = (c.hand + 1) % c.capacity
		return evicted, true
	}
}

// Victim implements Policy: it sweeps exactly as an eviction would —
// clearing reference bits and advancing the hand past empty or referenced
// frames — and stops with the hand ON the victim, so Victim followed by
// Insert (when full) evicts the reported key.
func (c *Clock) Victim() (block.Key, bool) {
	if len(c.index) == 0 {
		return 0, false
	}
	for {
		f := &c.frames[c.hand]
		if !f.used {
			c.hand = (c.hand + 1) % c.capacity
			continue
		}
		if f.referenced {
			f.referenced = false
			c.hand = (c.hand + 1) % c.capacity
			continue
		}
		return f.key, true
	}
}

// Remove implements Policy. The freed frame is found again by Insert's
// free-frame scan; the hand needs no repair because it addresses ring
// positions, not blocks.
func (c *Clock) Remove(key block.Key) bool {
	i, ok := c.index[key]
	if !ok {
		return false
	}
	delete(c.index, key)
	c.frames[i] = clockFrame{}
	return true
}

// Keys implements Policy: referenced frames first, each group ordered by
// distance ahead of the hand (the frames the sweep reaches last — the
// likeliest survivors — lead), so the prefix of Keys is the safest set to
// preserve.
func (c *Clock) Keys() []block.Key {
	out := make([]block.Key, 0, len(c.index))
	for _, wantRef := range [2]bool{true, false} {
		for i := 0; i < c.capacity; i++ {
			slot := (c.hand + c.capacity - 1 - i) % c.capacity
			f := &c.frames[slot]
			if f.used && f.referenced == wantRef {
				out = append(out, f.key)
			}
		}
	}
	return out
}

// Swap implements Policy via the generic path.
func (c *Clock) Swap(keys []block.Key) (moved int, evicted []block.Key, overflow int) {
	return swapTags(c, keys)
}

var _ TagStore = (*Clock)(nil)
