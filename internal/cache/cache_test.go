package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/block"
)

func key(n uint64) block.Key { return block.MakeKey(0, 0, n) }

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestInsertTouchContains(t *testing.T) {
	c := New(2)
	if c.Touch(key(1)) {
		t.Error("hit in empty cache")
	}
	if _, ev := c.Insert(key(1)); ev {
		t.Error("eviction from non-full cache")
	}
	if !c.Contains(key(1)) || !c.Touch(key(1)) {
		t.Error("block 1 should be resident")
	}
	c.Insert(key(2))
	if c.Len() != 2 || c.Capacity() != 2 {
		t.Errorf("len=%d cap=%d", c.Len(), c.Capacity())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Insert(key(1))
	c.Insert(key(2))
	// Touch 1 so 2 becomes the victim.
	c.Touch(key(1))
	evicted, ok := c.Insert(key(3))
	if !ok || evicted != key(2) {
		t.Errorf("evicted %v,%v; want key 2", evicted, ok)
	}
	if c.Contains(key(2)) || !c.Contains(key(1)) || !c.Contains(key(3)) {
		t.Error("wrong residency after eviction")
	}
}

func TestInsertResidentPromotes(t *testing.T) {
	c := New(2)
	c.Insert(key(1))
	c.Insert(key(2))
	// Re-inserting 1 must promote it, not evict.
	if _, ev := c.Insert(key(1)); ev {
		t.Error("re-insert evicted")
	}
	if slot, _ := c.VictimSlot(); c.Key(slot) != key(2) {
		t.Errorf("LRU = %v, want key 2", c.Key(slot))
	}
}

func TestRemove(t *testing.T) {
	c := New(2)
	c.Insert(key(1))
	slot, ok := c.Lookup(key(1))
	if !ok {
		t.Fatal("inserted key has no slot")
	}
	c.Remove(slot)
	if c.Len() != 0 || c.Contains(key(1)) {
		t.Error("block still resident after Remove")
	}
	if c.Key(slot) != key(1) {
		t.Error("a removed slot must name its block until it is reused")
	}
	if _, ok := c.VictimSlot(); ok {
		t.Error("victim in an empty cache")
	}
	if c.FreeSlots() != 1 {
		t.Errorf("FreeSlots = %d after Remove, want 1", c.FreeSlots())
	}
	if got := c.Add(key(2)); got != slot || c.Slots() != 1 {
		t.Errorf("Add took slot %d of %d, want the removed slot %d", got, c.Slots(), slot)
	}
}

func TestKeysMRUOrder(t *testing.T) {
	c := New(3)
	c.Insert(key(1))
	c.Insert(key(2))
	c.Insert(key(3))
	c.Touch(key(1))
	got := c.Keys()
	want := []block.Key{key(1), key(3), key(2)}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
	}
}

func TestReplaceAll(t *testing.T) {
	c := New(4)
	c.Insert(key(1))
	c.Insert(key(2))
	c.Insert(key(3))
	// New epoch keeps 2 and 3, adds 5 and 6: two moves.
	moved, _, _ := c.Swap([]block.Key{key(5), key(2), key(6), key(3)})
	if moved != 2 {
		t.Errorf("moved = %d, want 2", moved)
	}
	if c.Len() != 4 || c.Contains(key(1)) {
		t.Error("epoch set wrong")
	}
	for _, k := range []uint64{2, 3, 5, 6} {
		if !c.Contains(key(k)) {
			t.Errorf("key %d missing", k)
		}
	}
	// MRU order follows slice order.
	if got := c.Keys(); got[0] != key(5) || got[3] != key(3) {
		t.Errorf("Keys() = %v", got)
	}
}

func TestReplaceAllTruncatesToCapacity(t *testing.T) {
	c := New(2)
	moved, _, _ := c.Swap([]block.Key{key(1), key(2), key(3), key(4)})
	if moved != 2 || c.Len() != 2 {
		t.Errorf("moved=%d len=%d", moved, c.Len())
	}
	if !c.Contains(key(1)) || !c.Contains(key(2)) {
		t.Error("should keep the highest-priority prefix")
	}
}

func TestReplaceAllEmpty(t *testing.T) {
	c := New(2)
	c.Insert(key(1))
	if moved, _, _ := c.Swap(nil); moved != 0 {
		t.Errorf("moved = %d", moved)
	}
	if c.Len() != 0 {
		t.Error("cache should be empty")
	}
}

// TestInvariants drives random operations, removing slots among them, and checks structural invariants after each: size ≤
// capacity, Keys() consistent with the index, list links intact.
func TestInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := New(16)
	resident := make(map[block.Key]bool)
	for i := 0; i < 20000; i++ {
		k := key(uint64(rng.Intn(64)))
		switch rng.Intn(4) {
		case 0:
			if got := c.Touch(k); got != resident[k] {
				t.Fatalf("op %d: Touch(%v) = %v, shadow says %v", i, k, got, resident[k])
			}
		case 1:
			evicted, ok := c.Insert(k)
			resident[k] = true
			if ok {
				if !resident[evicted] {
					t.Fatalf("op %d: evicted non-resident %v", i, evicted)
				}
				delete(resident, evicted)
			}
		case 2:
			slot, ok := c.Lookup(k)
			if ok != resident[k] {
				t.Fatalf("op %d: Lookup(%v) = %v", i, k, ok)
			}
			if ok {
				c.Remove(slot)
			}
			delete(resident, k)
		case 3:
			if c.Len() != len(resident) {
				t.Fatalf("op %d: Len %d vs shadow %d", i, c.Len(), len(resident))
			}
		}
		if c.Len() > c.Capacity() {
			t.Fatalf("op %d: over capacity", i)
		}
	}
	keys := c.Keys()
	if len(keys) != c.Len() {
		t.Fatalf("Keys len %d vs Len %d", len(keys), c.Len())
	}
	for _, k := range keys {
		if !resident[k] {
			t.Fatalf("stale key %v", k)
		}
	}
}

// Property: after any insert sequence, the cache holds the most recently
// used distinct keys.
func TestLRUPolicyProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		const capacity = 8
		c := New(capacity)
		var recency []block.Key // most recent last, unique
		for _, op := range ops {
			k := key(uint64(op % 32))
			c.Insert(k)
			for i, r := range recency {
				if r == k {
					recency = append(recency[:i], recency[i+1:]...)
					break
				}
			}
			recency = append(recency, k)
		}
		want := recency
		if len(want) > capacity {
			want = want[len(want)-capacity:]
		}
		if c.Len() != len(want) {
			return false
		}
		for _, k := range want {
			if !c.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsertTouch(b *testing.B) {
	c := New(1 << 16)
	rng := rand.New(rand.NewSource(1))
	keys := make([]block.Key, 1<<18)
	for i := range keys {
		keys[i] = key(uint64(rng.Intn(1 << 20)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(1<<18-1)]
		if !c.Touch(k) {
			c.Insert(k)
		}
	}
}

func TestPartitionCapacity(t *testing.T) {
	cases := []struct {
		total, n int
		want     []int
	}{
		{total: 10, n: 1, want: []int{10}},
		{total: 10, n: 2, want: []int{5, 5}},
		{total: 10, n: 4, want: []int{3, 3, 2, 2}},
		{total: 7, n: 4, want: []int{2, 2, 2, 1}},
		{total: 4, n: 4, want: []int{1, 1, 1, 1}},
	}
	for _, c := range cases {
		got := PartitionCapacity(c.total, c.n)
		sum := 0
		for i, v := range got {
			sum += v
			if v != c.want[i] {
				t.Errorf("PartitionCapacity(%d,%d) = %v, want %v", c.total, c.n, got, c.want)
				break
			}
		}
		if sum != c.total {
			t.Errorf("PartitionCapacity(%d,%d) sums to %d", c.total, c.n, sum)
		}
	}
	for _, bad := range []struct{ total, n int }{{0, 1}, {3, 4}, {5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PartitionCapacity(%d,%d): want panic", bad.total, bad.n)
				}
			}()
			PartitionCapacity(bad.total, bad.n)
		}()
	}
}
