package cache

import "testing"

// The §3.1 ablation's FIFO, CLOCK and S3-FIFO orders.

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
	if f.Len() != 2 || f.Contains(key(1)) || !f.Contains(key(3)) {
		t.Error("state wrong after eviction")
	}
	// Inserting a resident key is a no-op.
	if _, ok := f.Insert(key(2)); ok {
		t.Error("resident insert evicted")
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
	// The hand sits on key 1, the oldest and unreferenced: evicted first.
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
	if !c.Contains(key(2)) {
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
	if !clock.Contains(hot) {
		t.Error("CLOCK evicted the constantly-referenced block")
	}
	if fifo.Contains(hot) {
		t.Error("FIFO kept a block through 100 insertions at capacity 8")
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
	// Twelve of them: had key 0 re-entered the small queue instead, this
	// storm would push it out (eight would not).
	s.Insert(key(0))
	for i := uint64(200); i < 212; i++ {
		s.Insert(key(i))
	}
	if !s.Contains(key(0)) {
		t.Error("ghost-readmitted block did not survive in main")
	}
}

func TestS3FIFOGhostStaysBounded(t *testing.T) {
	t.Parallel()
	s := NewS3FIFO(20)
	for i := uint64(0); i < 100000; i++ {
		s.Insert(key(i))
	}
	o := s.order.(*s3fifoOrder)
	if len(o.ghost) > o.ghostCap {
		t.Errorf("ghost map has %d entries, cap %d", len(o.ghost), o.ghostCap)
	}
	if len(o.ghostQ) > 2*o.ghostCap {
		t.Errorf("ghost queue has %d slots, want ≤ %d", len(o.ghostQ), 2*o.ghostCap)
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
	if !s.Contains(key(0)) {
		t.Error("promoted block missing")
	}
}
