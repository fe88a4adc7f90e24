package cache

import (
	"fmt"
	"strings"

	"repro/internal/block"
)

// Policy is the full replacement-engine interface internal/core drives: a
// TagStore plus the victim peeking, point removal, enumeration, and batch
// replacement that the store's write-back flushing, invalidation,
// snapshotting, and SieveStore-D epoch swaps need. Every implementation in
// this package (Cache under LRU or SIEVE order, S3-FIFO, FIFO, CLOCK)
// satisfies it, so the cache proper and the §3.1 replacement ablation
// draw from one set of engines.
//
// Contract (beyond TagStore's):
//
//   - Victim reports the key the next Insert of a non-resident key would
//     evict, without evicting it. Policies that approximate recency with a
//     sweeping cursor (SIEVE, CLOCK) may advance the cursor and clear
//     visited/reference bits while locating the victim — exactly the state
//     changes the eviction itself would have made — so Victim followed by
//     Insert behaves as one eviction. The result is only meaningful when
//     the policy is full (Len() == Capacity()); ok is false when empty.
//   - Remove evicts key if resident, repairing any internal cursor that
//     pointed at it (the SIEVE/CLOCK hand), and reports whether it was.
//   - Keys returns the resident keys ordered hottest-first where the
//     policy defines an order (LRU: MRU→LRU; queue policies: newest
//     first), so saving the prefix of Keys preserves the most valuable
//     blocks.
//   - Swap installs exactly the given block set, hottest-first, evicting
//     everything else. It returns how many keys actually moved in (were
//     not already resident), the evicted keys, and overflow: how many of
//     the given keys could NOT be installed because they exceed capacity.
//     Overflow keys are dropped from the cold tail, never silently —
//     callers surface the count (core tracks it in Stats.SelectOverflow).
type Policy interface {
	TagStore
	Victim() (block.Key, bool)
	Remove(key block.Key) bool
	Keys() []block.Key
	Swap(keys []block.Key) (moved int, evicted []block.Key, overflow int)
}

var (
	_ Policy = (*Cache)(nil)
	_ Policy = (*S3FIFO)(nil)
	_ Policy = (*FIFO)(nil)
	_ Policy = (*Clock)(nil)
)

// PolicyNames lists the registered replacement engines, default first.
func PolicyNames() []string { return []string{"lru", "sieve", "s3fifo", "fifo", "clock"} }

// NewPolicy builds the named replacement engine with the given capacity in
// blocks. Names are case-insensitive; "" means the default ("lru", the
// paper's policy).
func NewPolicy(name string, capacity int) (Policy, error) {
	switch strings.ToLower(name) {
	case "", "lru":
		return New(capacity), nil
	case "sieve":
		return NewSieve(capacity), nil
	case "s3fifo", "s3-fifo":
		return NewS3FIFO(capacity), nil
	case "fifo":
		return NewFIFO(capacity), nil
	case "clock":
		return NewClock(capacity), nil
	}
	return nil, fmt.Errorf("cache: unknown policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
}

// NewTable builds the named engine in the slot-indexed form internal/core
// drives. Only LRU and SIEVE order slots; the engines kept for the §3.1
// replacement ablation key everything and stay with the simulator.
func NewTable(name string, capacity int) (*Cache, error) {
	p, err := NewPolicy(name, capacity)
	if err != nil {
		return nil, err
	}
	c, ok := p.(*Cache)
	if !ok {
		return nil, fmt.Errorf("cache: policy %q does not order slots (have %s)", name, strings.Join(TableNames(), ", "))
	}
	return c, nil
}

// TableNames lists the engines NewTable builds, default first.
func TableNames() []string { return []string{"lru", "sieve"} }

// swapTags implements the Swap contract generically on top of Remove and
// Insert for policies without a batch-optimized path. Evictions of keys
// outside the new set happen first, so the inserts that follow never
// trigger the policy's own eviction; already-resident keys are refreshed
// via Insert's Touch-equivalent duplicate handling. Inserting coldest
// first leaves keys[0] hottest.
func swapTags(p Policy, keys []block.Key) (moved int, evicted []block.Key, overflow int) {
	if over := len(keys) - p.Capacity(); over > 0 {
		overflow = over
		keys = keys[:p.Capacity()]
	}
	incoming := make(map[block.Key]bool, len(keys))
	for _, k := range keys {
		incoming[k] = true
	}
	for _, k := range p.Keys() {
		if !incoming[k] {
			p.Remove(k)
			evicted = append(evicted, k)
		}
	}
	for i := len(keys) - 1; i >= 0; i-- {
		if !p.Contains(keys[i]) {
			moved++
		}
		p.Insert(keys[i])
	}
	return moved, evicted, overflow
}
