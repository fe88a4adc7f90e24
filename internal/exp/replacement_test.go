package exp

import (
	"testing"

	"repro/internal/block"
	"repro/internal/cache"
)

func key(n uint64) block.Key { return block.MakeKey(0, 0, n) }

// resident reports whether an engine holds key, without the hit a Touch
// would record.
func resident(ts cache.TagStore, key block.Key) bool {
	switch e := ts.(type) {
	case *FIFO:
		return e.table[key]
	case *Clock:
		_, ok := e.index[key]
		return ok
	case *S3FIFO:
		_, ok := e.table[key]
		return ok
	}
	panic("resident: unknown engine")
}

func TestFIFOBasics(t *testing.T) {
	t.Parallel()
	f := NewFIFO(2)
	if f.Name() != "FIFO" {
		t.Error("identity wrong")
	}
	f.Insert(key(1))
	f.Insert(key(2))
	// Touching 1 must NOT protect it: FIFO evicts insertion order.
	if !f.Touch(key(1)) {
		t.Fatal("hit lost")
	}
	evicted, ok := f.Insert(key(3))
	if !ok || evicted != key(1) {
		t.Errorf("evicted %v, want key 1", evicted)
	}
	if f.Len() != 2 || resident(f, key(1)) || !resident(f, key(3)) {
		t.Error("state wrong after eviction")
	}
	// Inserting a resident key is a no-op.
	if _, ok := f.Insert(key(2)); ok {
		t.Error("resident insert evicted")
	}
}

func TestFIFOQueueCompaction(t *testing.T) {
	t.Parallel()
	// The queue must stay O(capacity) at every point of a long insert
	// storm — not just after a final compaction.
	f := NewFIFO(4)
	for i := uint64(0); i < 10000; i++ {
		f.Insert(key(i))
		if len(f.queue) > 2*f.capacity {
			t.Fatalf("insert %d: queue grew to %d slots (head=%d), want ≤ %d",
				i, len(f.queue), f.head, 2*f.capacity)
		}
	}
	// The four newest keys remain, oldest first in eviction order.
	for _, i := range []uint64{9996, 9997, 9998, 9999} {
		if !resident(f, key(i)) {
			t.Fatalf("key %d missing", i)
		}
	}
	if ev, ok := f.Insert(key(10000)); !ok || ev != key(9996) {
		t.Fatalf("evicted %v, want key 9996", ev)
	}
}

func TestClockSecondChance(t *testing.T) {
	t.Parallel()
	c := NewClock(3)
	if c.Name() != "CLOCK" {
		t.Error("identity wrong")
	}
	c.Insert(key(1))
	c.Insert(key(2))
	c.Insert(key(3))
	// Only key 2 has been touched since insertion.
	if !c.Touch(key(2)) {
		t.Fatal("key 2 lost")
	}
	// The hand sits at slot 0 (key 1, unreferenced): evicted first.
	evicted, ok := c.Insert(key(4))
	if !ok || evicted != key(1) {
		t.Errorf("evicted %v, want key 1", evicted)
	}
	// Next insertion: the sweep reaches key 2 (referenced → second
	// chance, bit cleared) and evicts key 3 (unreferenced).
	evicted, ok = c.Insert(key(5))
	if !ok || evicted != key(3) {
		t.Errorf("evicted %v, want key 3 (second chance for key 2)", evicted)
	}
	if !resident(c, key(2)) {
		t.Error("referenced block lost its second chance")
	}
	if c.Len() != 3 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestClockApproximatesLRUUnderReuse(t *testing.T) {
	t.Parallel()
	// A hot block touched between every insertion must survive a long
	// insertion storm under CLOCK (second chance) but not under FIFO.
	hot := key(999)
	clock := NewClock(8)
	fifo := NewFIFO(8)
	clock.Insert(hot)
	fifo.Insert(hot)
	for i := uint64(0); i < 100; i++ {
		clock.Touch(hot)
		fifo.Touch(hot)
		clock.Insert(key(i))
		fifo.Insert(key(i))
	}
	if !resident(clock, hot) {
		t.Error("CLOCK evicted the constantly-referenced block")
	}
	if resident(fifo, hot) {
		t.Error("FIFO kept a block through 100 insertions at capacity 8")
	}
}

func TestReplacementConstructorsPanic(t *testing.T) {
	t.Parallel()
	for _, f := range []func(){
		func() { NewFIFO(0) },
		func() { NewClock(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("zero capacity accepted")
				}
			}()
			f()
		}()
	}
}

func TestS3FIFOGhostPromotesToMain(t *testing.T) {
	t.Parallel()
	s := NewS3FIFO(10) // small target 1, main 9, ghost 9
	for i := uint64(0); i < 10; i++ {
		s.Insert(key(i))
	}
	// Key 0 is the small queue's oldest and unaccessed: one more insert
	// demotes it quickly — but the ghost remembers it.
	if ev, ok := s.Insert(key(100)); !ok || ev != key(0) {
		t.Fatalf("evicted %v, want key 0", ev)
	}
	// Its return is a ghost hit: key 0 re-enters straight into main and
	// now survives a storm of one-hit wonders churning the small queue.
	s.Insert(key(0))
	for i := uint64(200); i < 208; i++ {
		s.Insert(key(i))
	}
	if !resident(s, key(0)) {
		t.Error("ghost-readmitted block did not survive in main")
	}
}

func TestS3FIFOGhostStaysBounded(t *testing.T) {
	t.Parallel()
	s := NewS3FIFO(20)
	for i := uint64(0); i < 100000; i++ {
		s.Insert(key(i))
	}
	gcap := s.ghostCap()
	if len(s.ghost) > gcap {
		t.Errorf("ghost map has %d entries, cap %d", len(s.ghost), gcap)
	}
	if len(s.ghostQ) > 2*gcap {
		t.Errorf("ghost queue has %d slots, want ≤ %d", len(s.ghostQ), 2*gcap)
	}
}

func TestS3FIFOPromotionOnAccess(t *testing.T) {
	t.Parallel()
	// A probationary block that IS accessed gets promoted to main at
	// small-queue eviction time instead of being demoted.
	s := NewS3FIFO(10)
	for i := uint64(0); i < 10; i++ {
		s.Insert(key(i))
	}
	s.Touch(key(0)) // oldest small entry, now freq>0
	ev, ok := s.Insert(key(100))
	if !ok {
		t.Fatal("no eviction at capacity")
	}
	if ev == key(0) {
		t.Error("accessed probationary block was evicted, not promoted")
	}
	if !resident(s, key(0)) {
		t.Error("promoted block missing")
	}
}
