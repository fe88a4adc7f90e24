// Package cache is the slot table every SieveStore configuration caches
// through: a fully-associative tag store of 512-byte block frames under LRU
// replacement (the paper's continuous configurations — SieveStore-C, AOD,
// WMNA — all share this replacement policy, §4) or SIEVE, plus the batch
// replacement SieveStore-D's discrete epochs use.
//
// The package tracks only metadata (tags, slots and recency); data
// movement is the concern of internal/store and internal/core.
package cache

import (
	"fmt"
	"strings"

	"repro/internal/block"
)

// TagStore is the keyed cache interface the simulator drives. Cache
// satisfies it; so do the engines the §3.1 replacement ablation swaps in
// (internal/exp), to show that no replacement policy rescues unsieved
// ensemble caching — the allocation-write and pollution problems are the
// allocation policy's.
//
// Duplicate-insert contract: Insert on an already-resident key updates
// the policy's hit state exactly as Touch would (LRU promotes to MRU,
// SIEVE sets the visited bit), allocates no frame, evicts nothing, and
// returns (0, false), so the ablation compares replacement policies rather
// than accidental duplicate-insert semantics.
type TagStore interface {
	// Name identifies the replacement policy.
	Name() string
	// Touch looks up key and notes a hit; reports residency.
	Touch(key block.Key) bool
	// Insert allocates a frame, evicting a victim when full. Resident
	// keys follow the duplicate-insert contract above.
	Insert(key block.Key) (evicted block.Key, wasEvicted bool)
}

// Cache is a fully-associative tag store: one page→slots index, the slots'
// keys, a free-slot list, and a replacement Order that ranks slots — LRU
// from New, SIEVE from NewSieve. Slots are dense small integers handed out
// once and reused after Remove, so a caller with per-block state of its
// own (internal/core: frames, dirty bits) keeps it in arrays indexed by
// slot and shares this index instead of keying a second map.
// Blocks are what it holds, ranks and evicts; the index only groups them
// by 4 KiB page, so one probe (Page) serves a page run.
//
// The keyed methods (Touch, Insert, Contains, Swap) are what the simulator
// drives; the slot methods (Lookup, Page, Hit, Add, Remove, SwapSlots) are
// what internal/core uses.
// It is not goroutine-safe; concurrent users serialize access.
type Cache struct {
	capacity int
	n        int // resident blocks
	// index holds, by Key.Page, each block's slot plus one, 0 where it is
	// not resident; no entry is all zero.
	index map[block.Key][block.BlocksPerPage]uint32
	keys  []block.Key // by slot; a slot keeps its key until reused
	free  []uint32    // released slots, reused last-in first-out
	order Order
}

var _ TagStore = (*Cache)(nil)

// New returns an LRU cache with the given capacity in blocks.
func New(capacity int) *Cache { return newCache(capacity, &lruOrder{l: newSlotList()}) }

// NewSieve returns a SIEVE cache with the given capacity in blocks.
func NewSieve(capacity int) *Cache { return newCache(capacity, &sieveOrder{l: newSlotList()}) }

// NewPolicy builds the named replacement engine with the given capacity in
// blocks: "lru" (or "", the paper's policy) or "sieve", case-insensitive.
func NewPolicy(name string, capacity int) (*Cache, error) {
	switch strings.ToLower(name) {
	case "", "lru":
		return New(capacity), nil
	case "sieve":
		return NewSieve(capacity), nil
	}
	return nil, fmt.Errorf("cache: unknown policy %q (have lru, sieve)", name)
}

func newCache(capacity int, order Order) *Cache {
	if capacity < 1 {
		panic(fmt.Sprintf("cache: capacity must be ≥1, got %d", capacity))
	}
	return &Cache{capacity: capacity, index: make(map[block.Key][block.BlocksPerPage]uint32), order: order}
}

// Name identifies the replacement policy.
func (c *Cache) Name() string { return c.order.Name() }

// Capacity returns the cache capacity in blocks.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of resident blocks.
func (c *Cache) Len() int { return c.n }

// Slots returns how many slots were ever handed out: resident ones and free
// ones.
func (c *Cache) Slots() int { return len(c.keys) }

// FreeSlots returns how many removed slots await reuse.
func (c *Cache) FreeSlots() int { return len(c.free) }

// Lookup returns key's slot without updating the order.
func (c *Cache) Lookup(key block.Key) (slot uint32, ok bool) {
	s := c.index[key.Page()][key%block.BlocksPerPage]
	return s - 1, s != 0
}

// Page returns the index entry of key's page — by block of the page, its
// slot plus one, 0 where it is not resident — without updating the order.
func (c *Cache) Page(key block.Key) [block.BlocksPerPage]uint32 { return c.index[key.Page()] }

// set points key's place in the index at s (a slot plus one, or 0 for
// absent), dropping a page entry that empties.
func (c *Cache) set(key block.Key, s uint32) {
	pg := c.index[key.Page()]
	if pg[key%block.BlocksPerPage] = s; pg == [block.BlocksPerPage]uint32{} {
		delete(c.index, key.Page())
	} else {
		c.index[key.Page()] = pg
	}
}

// Key returns the key last stored in slot.
func (c *Cache) Key(slot uint32) block.Key { return c.keys[slot] }

// Hit notes a hit on a resident slot.
func (c *Cache) Hit(slot uint32) { c.order.Touch(slot) }

// VictimSlot is the slot to Remove to make room in a full cache.
func (c *Cache) VictimSlot() (uint32, bool) { return c.order.Victim() }

// Add makes a non-resident key resident, as the newest, in a slot of its
// own: a removed one, else the next new one. The cache must not be full:
// the caller Removes VictimSlot first.
func (c *Cache) Add(key block.Key) (slot uint32) {
	if n := len(c.free); n > 0 {
		slot, c.free = c.free[n-1], c.free[:n-1]
		c.keys[slot] = key
	} else {
		slot = uint32(len(c.keys))
		c.keys = append(c.keys, key)
	}
	c.order.Insert(slot)
	c.set(key, slot+1)
	c.n++
	return slot
}

// Remove takes a resident slot out of the index and the order and frees it
// for reuse. Key keeps naming its block until the slot is handed out again.
func (c *Cache) Remove(slot uint32) {
	c.order.Remove(slot)
	c.set(c.keys[slot], 0)
	c.n--
	c.free = append(c.free, slot)
}

// AppendSlots appends the resident slots, hottest first where the policy
// defines an order (LRU: MRU→LRU; SIEVE: newest first).
func (c *Cache) AppendSlots(dst []uint32) []uint32 { return c.order.AppendSlots(dst) }

// Contains reports residency without updating recency.
func (c *Cache) Contains(key block.Key) bool {
	_, ok := c.Lookup(key)
	return ok
}

// Touch looks up key and, on a hit, notes it (LRU promotes to
// most-recently-used). It returns whether the block was resident.
func (c *Cache) Touch(key block.Key) bool {
	slot, ok := c.Lookup(key)
	if ok {
		c.order.Touch(slot)
	}
	return ok
}

// Insert allocates a frame for key. If the cache is full the policy's
// victim is evicted and returned. Inserting a resident key is a Touch.
func (c *Cache) Insert(key block.Key) (evicted block.Key, wasEvicted bool) {
	if c.Touch(key) {
		return 0, false
	}
	if c.n >= c.capacity {
		victim, _ := c.order.Victim()
		evicted, wasEvicted = c.keys[victim], true
		c.Remove(victim)
	}
	c.Add(key)
	return evicted, wasEvicted
}

// Keys returns the resident blocks hottest first (see AppendSlots).
func (c *Cache) Keys() (out []block.Key) {
	for _, slot := range c.order.AppendSlots(nil) {
		out = append(out, c.keys[slot])
	}
	return out
}

// SwapSlots installs exactly the given block set, hottest first, evicting
// everything else — SieveStore-D's end-of-epoch batch allocation. Residents
// outside the set go first, each handed to evict, which must Remove it;
// retained keys are then refreshed and new ones added coldest first, so
// keys[0] ends hottest and the cache is never over capacity. It returns the
// slots of the keys that actually moved in — the paper's observation that
// replacement and allocation "cancel" for blocks retained across epochs
// (§3.2). Keys beyond capacity cannot be installed; they are dropped from
// the cold tail and counted in overflow, never silently.
func (c *Cache) SwapSlots(keys []block.Key, evict func(slot uint32)) (moved []uint32, overflow int) {
	if over := len(keys) - c.capacity; over > 0 {
		overflow = over
		keys = keys[:c.capacity]
	}
	incoming := make(map[block.Key]bool, len(keys))
	for _, k := range keys {
		incoming[k] = true
	}
	for _, slot := range c.order.AppendSlots(nil) {
		if !incoming[c.keys[slot]] {
			evict(slot)
		}
	}
	for i := len(keys) - 1; i >= 0; i-- {
		if !c.Touch(keys[i]) {
			moved = append(moved, c.Add(keys[i]))
		}
	}
	return moved, overflow
}

// Swap is SwapSlots for a caller with no per-slot state: it returns how
// many keys moved in, the keys that were evicted, and the overflow count.
func (c *Cache) Swap(keys []block.Key) (moved int, evicted []block.Key, overflow int) {
	in, overflow := c.SwapSlots(keys, func(slot uint32) {
		evicted = append(evicted, c.keys[slot])
		c.Remove(slot)
	})
	return len(in), evicted, overflow
}

// PartitionCapacity splits a total block capacity as evenly as possible
// across n partitions: every partition gets total/n blocks and the first
// total%n partitions get one extra, so the sum is exactly total and no
// two partitions differ by more than one block. It panics when n < 1 or
// total < n (a partition of capacity zero cannot hold a cache).
func PartitionCapacity(total, n int) []int {
	if n < 1 || total < n {
		panic(fmt.Sprintf("cache: PartitionCapacity(%d, %d) needs 1 ≤ n ≤ total", total, n))
	}
	caps := make([]int, n)
	for i := range caps {
		caps[i] = (total + n - 1 - i) / n
	}
	return caps
}
