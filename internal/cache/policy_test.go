package cache

import (
	"math/rand"
	"testing"

	"repro/internal/block"
)

func TestNewPolicyRegistry(t *testing.T) {
	want := map[string]string{
		"":      "LRU",
		"lru":   "LRU",
		"LRU":   "LRU",
		"sieve": "SIEVE",
		"SIEVE": "SIEVE",
	}
	for arg, name := range want {
		c, err := NewPolicy(arg, 8)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", arg, err)
		}
		if c.Name() != name || c.Capacity() != 8 {
			t.Errorf("NewPolicy(%q) = %s/%d, want %s/8", arg, c.Name(), c.Capacity(), name)
		}
	}
	for _, bad := range []string{"arc", "s3fifo", "fifo", "clock"} {
		if _, err := NewPolicy(bad, 8); err == nil {
			t.Errorf("NewPolicy(%q) accepted an engine that orders no slots", bad)
		}
	}
}

// engines constructs a cache under each replacement order.
var engines = []func(capacity int) *Cache{New, NewSieve, NewFIFO, NewClock, NewS3FIFO}

// TestVictimMatchesInsert pins VictimSlot under every order: at capacity,
// the slot it names holds exactly the key the next Insert evicts — also
// where VictimSlot changes state the way the eviction itself would (SIEVE
// advances its hand and clears bits, CLOCK clears bits and requeues,
// S3-FIFO promotes and decays) — so asking twice names the same slot.
func TestVictimMatchesInsert(t *testing.T) {
	const capacity = 16
	for _, newCache := range engines {
		c := newCache(capacity)
		t.Run(c.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for i := uint64(0); i < capacity; i++ {
				c.Insert(key(i))
			}
			next := uint64(capacity)
			for round := 0; round < 1000; round++ {
				// Random touches to move the recency/visited state around.
				for j := 0; j < rng.Intn(4); j++ {
					keys := c.Keys()
					c.Touch(keys[rng.Intn(len(keys))])
				}
				slot, ok := c.VictimSlot()
				if again, _ := c.VictimSlot(); !ok || again != slot {
					t.Fatalf("round %d: VictimSlot named %d (ok=%v), then %d", round, slot, ok, again)
				}
				v := c.Key(slot)
				next++
				evicted, wasEvicted := c.Insert(key(next))
				if !wasEvicted || evicted != v {
					t.Fatalf("round %d: VictimSlot held %v, Insert evicted %v (ok=%v)",
						round, v, evicted, wasEvicted)
				}
			}
		})
	}
}

// TestSwapContract exercises Cache.Swap under both orders: exact final
// set, hottest prefix kept, overflow counted (never silently dropped),
// moved counting only true move-ins, and evicted covering everything
// that left.
func TestSwapContract(t *testing.T) {
	const capacity = 8
	for _, p := range []*Cache{New(capacity), NewSieve(capacity)} {
		t.Run(p.Name(), func(t *testing.T) {
			for i := uint64(0); i < capacity; i++ {
				p.Insert(key(i))
			}
			// Keep 4 residents (0..3), add 6 fresh (100..105): 10 keys into
			// 8 slots → overflow 2, and the dropped tail must be the cold
			// end of the slice, not the hot prefix.
			sel := []block.Key{
				key(100), key(0), key(101), key(1), key(102), key(2),
				key(103), key(3), key(104), key(105),
			}
			moved, evicted, overflow := p.Swap(sel)
			if overflow != 2 {
				t.Fatalf("overflow = %d, want 2", overflow)
			}
			if moved != 4 {
				t.Errorf("moved = %d, want 4 (100..103 move in; 0..3 are retained)", moved)
			}
			if p.Len() != capacity {
				t.Fatalf("Len = %d, want %d", p.Len(), capacity)
			}
			for _, k := range sel[:capacity] {
				if !p.Contains(k) {
					t.Errorf("installed prefix key %v missing", k)
				}
			}
			for _, k := range sel[capacity:] {
				if p.Contains(k) {
					t.Errorf("overflow key %v resident", k)
				}
			}
			// 4..7 left; their frames' owners must learn it.
			got := make(map[block.Key]bool)
			for _, k := range evicted {
				got[k] = true
			}
			for i := uint64(4); i < capacity; i++ {
				if !got[key(i)] {
					t.Errorf("evicted list missing %v: %v", key(i), evicted)
				}
			}
			// A second identical swap moves nothing and overflows the same.
			moved, evicted, overflow = p.Swap(sel)
			if moved != 0 || len(evicted) != 0 || overflow != 2 {
				t.Errorf("idempotent swap: moved=%d evicted=%v overflow=%d", moved, evicted, overflow)
			}
		})
	}
}

func TestSieveEvictionOrder(t *testing.T) {
	s := NewSieve(3)
	s.Insert(key(1))
	s.Insert(key(2))
	s.Insert(key(3))
	// Only key 1 (the oldest) is visited: the hand clears its bit and
	// evicts the next unvisited block toward the head, key 2.
	if !s.Touch(key(1)) {
		t.Fatal("key 1 lost")
	}
	if ev, ok := s.Insert(key(4)); !ok || ev != key(2) {
		t.Fatalf("evicted %v, want key 2 (key 1 spent its visited bit)", ev)
	}
	// The hand now rests past key 2's slot at key 3; key 1's bit is spent,
	// so the next eviction takes key 3.
	if ev, ok := s.Insert(key(5)); !ok || ev != key(3) {
		t.Fatalf("evicted %v, want key 3", ev)
	}
	for _, k := range []uint64{1, 4, 5} {
		if !s.Contains(key(k)) {
			t.Errorf("key %d missing", k)
		}
	}
}

func TestSieveHandRepairOnRemove(t *testing.T) {
	s := NewSieve(4)
	for i := uint64(1); i <= 4; i++ {
		s.Insert(key(i))
	}
	// Park the hand on the victim, then Remove that exact slot: the hand
	// must advance (toward newer) rather than dangle.
	slot, ok := s.VictimSlot()
	if !ok {
		t.Fatal("no victim in a full cache")
	}
	s.Remove(slot)
	// Insert + evict repeatedly; no crash and no over-capacity.
	for i := uint64(10); i < 30; i++ {
		s.Insert(key(i))
		if s.Len() > s.Capacity() {
			t.Fatalf("over capacity after dropping the hand's block")
		}
	}
	// Remove the newest block while the hand sits on it (hand wraps).
	s2 := NewSieve(2)
	s2.Insert(key(1))
	s2.Insert(key(2))
	s2.Touch(key(1))
	slot, _ = s2.VictimSlot()
	if s2.Key(slot) != key(2) {
		t.Fatalf("victim = %v, want key 2", s2.Key(slot))
	}
	// Hand is on key 2; removing it forces the wrap-to-nil repair path.
	s2.Remove(slot)
	if ev, ok := s2.Insert(key(3)); ok {
		t.Fatalf("eviction %v from non-full sieve", ev)
	}
	if ev, ok := s2.Insert(key(4)); !ok || ev != key(1) {
		t.Fatalf("evicted %v, want key 1 (visited bit spent at VictimSlot)", ev)
	}
}

func TestSieveKeepsHotBlockUnderStorm(t *testing.T) {
	// A block touched between insertions survives an insertion storm under
	// SIEVE (its visited bit is refreshed every lap) — the property that
	// lets SIEVE match LRU on the skewed workloads the sieve admits.
	hot := key(999)
	s := NewSieve(8)
	s.Insert(hot)
	for i := uint64(0); i < 100; i++ {
		s.Touch(hot)
		s.Insert(key(i))
	}
	if !s.Contains(hot) {
		t.Error("SIEVE evicted the constantly-touched block")
	}
}
