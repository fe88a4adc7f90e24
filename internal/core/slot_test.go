package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/store"
)

// slotModel drives one shard's slot table directly, beside a plain
// map[Key][]byte of what must be resident, and checks the two against each
// other after every step.
type slotModel struct {
	t    *testing.T
	sh   *shard
	want map[block.Key][]byte
	step int
}

func (m *slotModel) check() {
	m.t.Helper()
	sh := m.sh
	if sh.tab.Len() != len(m.want) {
		m.t.Fatalf("step %d: %d resident, model has %d", m.step, sh.tab.Len(), len(m.want))
	}
	// Every slot handed out is in exactly one of two places: resident or
	// free.
	resident := make([]bool, sh.tab.Slots())
	dirty := 0
	for key, data := range m.want {
		slot, ok := sh.tab.Lookup(key)
		if !ok {
			m.t.Fatalf("step %d: %v not resident", m.step, key)
		}
		if resident[slot] {
			m.t.Fatalf("step %d: slot %d holds two resident blocks", m.step, slot)
		}
		resident[slot] = true
		if !bytes.Equal(sh.frame(slot), data) {
			m.t.Fatalf("step %d: %v in slot %d holds %x.., want %x..", m.step, key, slot, sh.frame(slot)[:4], data[:4])
		}
		if sh.dirty[slot] {
			dirty++
		}
	}
	for _, slot := range sh.tab.AppendSlots(nil) {
		if !resident[slot] {
			m.t.Fatalf("step %d: the order holds slot %d, which is not resident", m.step, slot)
		}
	}
	for slot, d := range sh.dirty {
		if d && !resident[slot] {
			m.t.Fatalf("step %d: free slot %d is dirty", m.step, slot)
		}
	}
	if got := len(m.want) + sh.tab.FreeSlots(); got != sh.tab.Slots() {
		m.t.Fatalf("step %d: resident %d + free %d != %d slots", m.step, len(m.want), sh.tab.FreeSlots(), sh.tab.Slots())
	}
	if dirty != sh.nDirty {
		m.t.Fatalf("step %d: nDirty %d, found %d", m.step, sh.nDirty, dirty)
	}
	// Slots are never handed out beyond capacity: a removed slot is reused
	// before a new one is made.
	if sh.tab.Slots() > sh.tab.Capacity() {
		m.t.Fatalf("step %d: %d slots for capacity %d", m.step, sh.tab.Slots(), sh.tab.Capacity())
	}
	if want := (sh.tab.Slots() + 1<<sh.slabShift - 1) >> sh.slabShift; len(sh.slabs) != want {
		m.t.Fatalf("step %d: %d slabs for %d slots, want %d", m.step, len(sh.slabs), sh.tab.Slots(), want)
	}
}

// TestSlotTableMatchesModel is the slot table's randomized model test:
// install, evict, touch, invalidate, write in place and the epoch swap, on
// LRU and SIEVE.
func TestSlotTableMatchesModel(t *testing.T) {
	for _, policy := range []string{"lru", "sieve"} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", policy, seed), func(t *testing.T) { slotModelRun(t, policy, seed) })
		}
	}
}

func slotModelRun(t *testing.T, policy string, seed int64) {
	const capacity, keySpace = 24, 80
	be := store.NewMem() // takes the write-back of a dirty block an install evicts
	be.AddVolume(0, 0, keySpace*block.Size)
	st, err := Open(be, Options{CacheBytes: capacity * block.Size, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sh := st.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m := &slotModel{t: t, sh: sh, want: make(map[block.Key][]byte)}
	rng := rand.New(rand.NewSource(seed))
	randKey := func() block.Key { return block.MakeKey(0, 0, uint64(rng.Intn(keySpace))) }
	payload := func() []byte {
		p := make([]byte, block.Size)
		rng.Read(p)
		return p
	}
	residentKey := func() (block.Key, uint32, bool) {
		slots := sh.tab.AppendSlots(nil)
		if len(slots) == 0 {
			return 0, 0, false
		}
		slot := slots[rng.Intn(len(slots))]
		return sh.tab.Key(slot), slot, true
	}
	for m.step = 0; m.step < 6000; m.step++ {
		switch op := rng.Intn(100); {
		case op < 45: // install; full, this evicts
			key, data := randKey(), payload()
			if _, ok := m.want[key]; !ok && sh.tab.Len() == capacity {
				victim, _ := sh.tab.VictimSlot()
				delete(m.want, sh.tab.Key(victim))
			}
			if _, ok := sh.install(key, data); !ok {
				t.Fatalf("step %d: install refused", m.step)
			}
			m.want[key] = data
		case op < 65: // touch
			if _, slot, ok := residentKey(); ok {
				sh.tab.Hit(slot)
			}
		case op < 75: // invalidate
			key := randKey()
			if slot, ok := sh.tab.Lookup(key); ok {
				sh.removeLocked(slot)
				delete(m.want, key)
			}
		case op < 97: // write in place, as WriteAt folds a hit; sometimes dirty
			if key, slot, ok := residentKey(); ok {
				data := payload()
				copy(sh.frame(slot), data)
				if rng.Intn(2) == 0 {
					sh.setDirtyLocked(slot)
				}
				m.want[key] = data
			}
		default: // epoch swap: keep some residents, bring in some new blocks
			var selected []block.Key
			fetched := make(map[block.Key][]byte)
			for len(selected) < capacity/2 {
				key := randKey()
				if _, dup := fetched[key]; dup {
					continue
				}
				selected = append(selected, key)
				fetched[key] = payload()
			}
			next := make(map[block.Key][]byte)
			for _, key := range sh.dirtyKeysLocked(nil) {
				next[key] = m.want[key] // dirty blocks are carried over
			}
			for _, key := range selected {
				if len(next) == capacity {
					break
				}
				if data, ok := m.want[key]; ok {
					next[key] = data
				} else if _, ok := next[key]; !ok {
					next[key] = fetched[key]
				}
			}
			sh.rotSkip = make(map[block.Key]uint8)
			sh.commitEpochLocked(selected, fetched)
			m.want = next
		}
		m.check()
	}
}

// hotStore returns a two-shard store with latency tracking on — the
// configuration the benchmark's lib_hot runs — whose sieve admits on the
// first miss, with blocks [0, n) of volume 0:0 read in once.
func hotStore(t *testing.T, shards, n int) *Store {
	t.Helper()
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<20)
	s, err := Open(be, Options{CacheBytes: int64(shards) * 128 * block.Size, Shards: shards, TrackLatency: true, SieveC: smallSieve()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	buf := make([]byte, block.Size)
	for b := 0; b < n; b++ {
		if err := s.ReadAt(0, 0, buf, uint64(b)*block.Size); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestHitPathAllocations guards the all-hit path's allocation count: an
// 8-block ReadAt makes none, whether it is one of the calls TrackLatency
// times (hotStore tracks latency) or not.
func TestHitPathAllocations(t *testing.T) {
	s := hotStore(t, 2, 64)
	buf := make([]byte, block.PageSize)
	before := s.Stats()
	timed, _ := s.LatencyHistograms()
	if n := testing.AllocsPerRun(200, func() {
		if err := s.ReadAt(0, 0, buf, 8*block.Size); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("all-hit 8-block ReadAt: %v allocations, want 0", n)
	}
	after := s.Stats()
	if after.BackendReads != before.BackendReads {
		t.Errorf("the measured reads were not all hits: %+v", after)
	}
	// 201 calls: none timed has odds (7/8)^201 < 10⁻¹¹; all timed, 8^-201.
	if rd, _ := s.LatencyHistograms(); rd.Count == timed.Count || rd.Count-timed.Count == after.ReadOps-before.ReadOps {
		t.Errorf("%d of %d measured reads were timed, want some but not all", rd.Count-timed.Count, after.ReadOps-before.ReadOps)
	}
}

// TestResidentRunReadBack reads back pages whose blocks are all resident
// but whose slots do not simply follow one another: page 0's blocks 1 and 2
// swapped slots, so its first and last slot are seven apart as if they did,
// and page 1's eight consecutive slots straddle a slab boundary. Every read,
// whole page, part page or both pages, must return the backend's bytes.
func TestResidentRunReadBack(t *testing.T) {
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<20)
	want := make([]byte, 3*block.PageSize)
	rand.New(rand.NewSource(44)).Read(want)
	if err := be.WriteAt(0, 0, want, 0); err != nil {
		t.Fatal(err)
	}
	// 256 blocks: slabs of 8 frames, one shard.
	s, err := Open(be, Options{CacheBytes: 256 * block.Size, Shards: 1, SieveC: smallSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	read := func(first, n int) []byte {
		t.Helper()
		p := bytes.Repeat([]byte{0xa5}, n*block.Size)
		if err := s.ReadAt(0, 0, p, uint64(first)*block.Size); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, b := range []int{0, 2, 1, 3, 4, 5, 6, 7, 16} { // slots 0…8 in turn
		read(b, 1)
	}
	read(8, block.BlocksPerPage) // page 1 into slots 9…16
	sh := s.shards[0]
	for pg, slots := range [][block.BlocksPerPage]uint32{{1, 3, 2, 4, 5, 6, 7, 8}, {10, 11, 12, 13, 14, 15, 16, 17}} {
		if got := sh.tab.Page(block.MakeKey(0, 0, uint64(pg*block.BlocksPerPage))); got != slots || sh.slabShift != 3 {
			t.Fatalf("page %d holds slots+1 %v in slabs of %d, want %v in slabs of 8", pg, got, 1<<sh.slabShift, slots)
		}
	}
	before := s.Stats()
	for _, r := range []struct{ first, n int }{{0, 8}, {8, 8}, {1, 3}, {0, 2}, {9, 7}, {4, 12}, {2, 1}} {
		if got := read(r.first, r.n); !bytes.Equal(got, want[r.first*block.Size:(r.first+r.n)*block.Size]) {
			t.Errorf("blocks %d…%d read back wrong bytes", r.first, r.first+r.n-1)
		}
	}
	if after := s.Stats(); after.BackendReads != before.BackendReads || after.ReadHits-before.ReadHits != 41 {
		t.Errorf("the read-backs were not 41 block hits: %d hits, %d backend reads", after.ReadHits-before.ReadHits, after.BackendReads-before.BackendReads)
	}
}

// TestWriteHitAllocations guards the write path: an aligned 4 KiB
// write-through write that hits makes one allocation, its blocks' flights,
// and the page-keyed in-flight table it reserves them in is empty after.
func TestWriteHitAllocations(t *testing.T) {
	s := hotStore(t, 2, 64)
	buf := make([]byte, block.PageSize)
	if n := testing.AllocsPerRun(200, func() {
		if err := s.WriteAt(0, 0, buf, block.PageSize); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("all-hit aligned 4 KiB WriteAt: %v allocations, want at most the []flight", n)
	}
	if n := inflightLen(s); n != 0 {
		t.Errorf("%d in-flight entries after the writes", n)
	}
	if st := s.Stats(); st.WriteHits != st.Writes || st.Writes != 201*block.BlocksPerPage {
		t.Errorf("the measured writes were not all hits: %+v", st)
	}
}

// TestShardVisitKeepsRecencyOrder pins the placement and batching rules.
// Every aligned 4 KiB page maps, whole, to one shard. A request that spans
// pages visits each shard once, but within a shard it touches blocks in
// request order, so every shard's recency order is what a block-by-block
// walk leaves — replayed here on one plain LRU per shard.
func TestShardVisitKeepsRecencyOrder(t *testing.T) {
	for _, shards := range []int{2, 8, 64} {
		s := &Store{shardMask: uint64(shards - 1)}
		used := map[int]bool{}
		for page := uint64(0); page < 1024; page++ {
			first := block.MakeKey(int(page%3), 1, page*block.BlocksPerPage)
			used[s.shardIndex(first)] = true
			for b := block.Key(1); b < block.BlocksPerPage; b++ {
				if s.shardIndex(first+b) != s.shardIndex(first) {
					t.Fatalf("Shards %d: blocks %v and %v of one page map to different shards", shards, first, first+b)
				}
			}
		}
		if len(used) != shards {
			t.Errorf("Shards %d: 1024 pages landed in only %d shards", shards, len(used))
		}
	}

	const blocks = 400
	s := hotStore(t, 8, blocks)
	ref := make([]*cache.Cache, len(s.shards))
	for i, sh := range s.shards {
		ref[i] = cache.New(sh.tab.Capacity())
	}
	walk := func(first, n int) (crossed bool) {
		for b := first; b < first+n; b++ {
			key := block.MakeKey(0, 0, uint64(b))
			crossed = crossed || s.shardIndex(key) != s.shardIndex(block.MakeKey(0, 0, uint64(first)))
			ref[s.shardIndex(key)].Insert(key)
		}
		return crossed
	}
	walk(0, blocks)
	buf := make([]byte, 40*block.Size)
	rng := rand.New(rand.NewSource(3))
	crossings := 0
	for i := 0; i < 300; i++ {
		// Unaligned, from inside one page to across six.
		first, n := rng.Intn(blocks-40), 1+rng.Intn(40)
		if err := s.ReadAt(0, 0, buf[:n*block.Size], uint64(first)*block.Size); err != nil {
			t.Fatal(err)
		}
		if walk(first, n) {
			crossings++
		}
		for si, sh := range s.shards {
			sh.mu.Lock()
			got := sh.tab.Keys()
			sh.mu.Unlock()
			if want := ref[si].Keys(); !reflect.DeepEqual(got, want) {
				t.Fatalf("read %d of blocks [%d,%d): shard %d recency order\n got %v\nwant %v", i, first, first+n, si, got, want)
			}
		}
	}
	if st := s.Stats(); st.Evictions != 0 || st.CachedBlocks != blocks || crossings < 100 {
		t.Fatalf("the replay assumes every read hit, and most to span shards (%d did): %+v", crossings, st)
	}
}

// TestAlignedPageTouchesOneShard: an all-hit aligned 4 KiB read is one
// critical section in one shard — Reads moves in exactly one — and at two
// shards, where the per-block mapping made it two, allocates nothing.
func TestAlignedPageTouchesOneShard(t *testing.T) {
	for _, shards := range []int{2, 8} {
		s := hotStore(t, shards, 64)
		buf := make([]byte, block.PageSize)
		reads := func() []int64 {
			out := make([]int64, len(s.shards))
			for i, sh := range s.shards {
				sh.mu.Lock()
				out[i] = sh.stats.Reads
				sh.mu.Unlock()
			}
			return out
		}
		for page := uint64(0); page < 8; page++ {
			before := reads()
			if err := s.ReadAt(0, 0, buf, page*block.PageSize); err != nil {
				t.Fatal(err)
			}
			moved := 0
			for i, n := range reads() {
				if n -= before[i]; n != 0 {
					moved++
					if n != block.BlocksPerPage {
						t.Errorf("Shards %d page %d: shard %d counted %d reads", shards, page, i, n)
					}
				}
			}
			if moved != 1 {
				t.Errorf("Shards %d page %d: Reads moved in %d shards, want 1", shards, page, moved)
			}
		}
		if shards == 2 {
			if n := testing.AllocsPerRun(100, func() { s.ReadAt(0, 0, buf, 3*block.PageSize) }); n != 0 {
				t.Errorf("aligned all-hit 4 KiB ReadAt at two shards: %v allocations, want 0", n)
			}
		}
		if st := s.Stats(); st.BackendReads != 64 {
			t.Errorf("Shards %d: the measured reads were not all hits: %+v", shards, st)
		}
	}
}
