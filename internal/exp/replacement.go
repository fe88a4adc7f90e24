package exp

import (
	"repro/internal/block"
	"repro/internal/cache"
)

// FIFO is a first-in-first-out tag store: eviction order is insertion
// order; hits do not refresh a block's position. The queue drops its
// drained prefix once that reaches capacity, so it never holds more than
// two capacities of keys.
type FIFO struct {
	capacity int
	table    map[block.Key]bool
	queue    []block.Key // queue[head:] are the residents, oldest first
	head     int
}

// NewFIFO returns a FIFO tag store with the given capacity in blocks.
func NewFIFO(capacity int) *FIFO {
	if capacity < 1 {
		panic("exp: FIFO capacity must be ≥1")
	}
	return &FIFO{capacity: capacity, table: make(map[block.Key]bool)}
}

// Name implements TagStore.
func (f *FIFO) Name() string { return "FIFO" }

// Touch implements TagStore (hits do not affect FIFO order).
func (f *FIFO) Touch(key block.Key) bool { return f.table[key] }

// Len returns the number of resident blocks.
func (f *FIFO) Len() int { return len(f.table) }

// Insert implements TagStore. Inserting a resident key is a no-op — the
// Touch-equivalent under FIFO, where hits do not move blocks.
func (f *FIFO) Insert(key block.Key) (evicted block.Key, wasEvicted bool) {
	if f.table[key] {
		return 0, false
	}
	if len(f.table) >= f.capacity {
		evicted, wasEvicted = f.queue[f.head], true
		f.head++
		delete(f.table, evicted)
	}
	if f.head >= f.capacity {
		f.queue = append(f.queue[:0], f.queue[f.head:]...)
		f.head = 0
	}
	f.table[key] = true
	f.queue = append(f.queue, key)
	return evicted, wasEvicted
}

var _ cache.TagStore = (*FIFO)(nil)

// Clock is the classic second-chance approximation of LRU: a circular
// buffer of frames with reference bits; the hand sweeps past referenced
// frames (clearing their bit) and evicts the first unreferenced one.
type Clock struct {
	capacity int
	frames   []clockFrame // filled in order, then a ring the hand sweeps
	index    map[block.Key]int
	hand     int
}

type clockFrame struct {
	key        block.Key
	referenced bool
}

// NewClock returns a Clock tag store with the given capacity in blocks.
func NewClock(capacity int) *Clock {
	if capacity < 1 {
		panic("exp: Clock capacity must be ≥1")
	}
	return &Clock{
		capacity: capacity,
		frames:   make([]clockFrame, 0, capacity),
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

// Len returns the number of resident blocks.
func (c *Clock) Len() int { return len(c.index) }

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
	if len(c.frames) < c.capacity {
		c.index[key] = len(c.frames)
		c.frames = append(c.frames, clockFrame{key: key})
		return 0, false
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
		*f = clockFrame{key: key}
		c.index[key] = c.hand
		c.hand = (c.hand + 1) % c.capacity
		return evicted, true
	}
}

var _ cache.TagStore = (*Clock)(nil)
