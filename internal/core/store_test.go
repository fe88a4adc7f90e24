package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/sieve"
	"repro/internal/store"
)

// fakeClock is an injectable, manually advanced clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// quickSieve admits a block on its 3rd miss within an hour — fast to
// exercise in tests.
func quickSieve() sieve.CConfig {
	return sieve.CConfig{IMCTSize: 1 << 16, T1: 2, T2: 1, Window: time.Hour, Subwindows: 4}
}

func testBackend() *store.Mem {
	m := store.NewMem()
	m.AddVolume(0, 0, 1<<24)
	m.AddVolume(1, 0, 1<<24)
	return m
}

func openC(t *testing.T, clk *fakeClock) *Store {
	t.Helper()
	s, err := Open(testBackend(), Options{
		CacheBytes: 64 * block.Size,
		SieveC:     quickSieve(),
		Now:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, Options{}); err == nil {
		t.Error("nil backend accepted")
	}
	if _, err := Open(testBackend(), Options{CacheBytes: 100}); err == nil {
		t.Error("unaligned cache size accepted")
	}
	if _, err := Open(testBackend(), Options{Variant: Variant(9)}); err == nil {
		t.Error("unknown variant accepted")
	}
	if _, err := Open(testBackend(), Options{Epoch: time.Second, Variant: VariantD}); err == nil {
		t.Error("absurd epoch accepted")
	}
	if _, err := Open(testBackend(), Options{DThreshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestDefaultsAre16GBVariantC(t *testing.T) {
	s, err := Open(testBackend(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Variant() != VariantC {
		t.Error("default variant should be C")
	}
	if got := s.Stats().CapacityBlocks; got != (16<<30)/block.Size {
		t.Errorf("capacity = %d blocks", got)
	}
}

func TestAlignmentEnforced(t *testing.T) {
	s := openC(t, newFakeClock())
	buf := make([]byte, 100)
	if err := s.ReadAt(0, 0, buf, 0); !errors.Is(err, ErrAlignment) {
		t.Errorf("unaligned length: %v", err)
	}
	if err := s.WriteAt(0, 0, make([]byte, 512), 100); !errors.Is(err, ErrAlignment) {
		t.Errorf("unaligned offset: %v", err)
	}
	if err := s.ReadAt(0, 0, nil, 0); !errors.Is(err, ErrAlignment) {
		t.Errorf("empty read: %v", err)
	}
}

// TestBlockRangeEnforced pins the fix for a remotely-triggerable panic
// found by FuzzServerInput: offsets past the addressable block range used
// to reach block.MakeKey, which panics on out-of-range components. They
// must surface as ErrRange instead.
func TestBlockRangeEnforced(t *testing.T) {
	s := openC(t, newFakeClock())
	buf := make([]byte, block.Size)
	beyond := uint64(block.MaxBlockNumber+1) * block.Size
	for _, off := range []uint64{beyond, ^uint64(0) - block.Size + 1} {
		if err := s.ReadAt(0, 0, buf, off); !errors.Is(err, ErrRange) {
			t.Errorf("read at %#x: %v", off, err)
		}
		if err := s.WriteAt(0, 0, buf, off); !errors.Is(err, ErrRange) {
			t.Errorf("write at %#x: %v", off, err)
		}
		if _, err := s.Invalidate(0, 0, off, block.Size); !errors.Is(err, ErrRange) {
			t.Errorf("invalidate at %#x: %v", off, err)
		}
	}
	// The last addressable block is still valid geometry (the backend will
	// reject it if the volume is smaller, but never by panicking).
	if err := s.ReadAt(0, 0, buf, beyond-block.Size); errors.Is(err, ErrRange) {
		t.Error("last addressable block rejected as out of range")
	}
}

// TestOutOfRangeIDsAreErrors: a server or volume ID a block key cannot hold
// is ErrRange at every entry point, never the panic block.MakeKey makes of
// it.
func TestOutOfRangeIDsAreErrors(t *testing.T) {
	s := openC(t, newFakeClock())
	buf := make([]byte, block.Size)
	for _, id := range []struct{ server, volume int }{
		{block.MaxServers, 0}, {0, block.MaxVolumes}, {-1, 0}, {0, -1},
	} {
		calls := map[string]func() error{
			"ReadAt":  func() error { return s.ReadAt(id.server, id.volume, buf, 0) },
			"WriteAt": func() error { return s.WriteAt(id.server, id.volume, buf, 0) },
			"Invalidate": func() error {
				_, err := s.Invalidate(id.server, id.volume, 0, block.Size)
				return err
			},
		}
		for name, call := range calls {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s(server %d, volume %d) panicked: %v", name, id.server, id.volume, r)
					}
				}()
				if err := call(); !errors.Is(err, ErrRange) {
					t.Errorf("%s(server %d, volume %d) = %v, want ErrRange", name, id.server, id.volume, err)
				}
			}()
		}
	}
	if st := s.Stats(); st.Reads != 0 || st.Writes != 0 || st.BackendReads != 0 || st.BackendWrites != 0 {
		t.Errorf("a rejected call reached the store: %+v", st)
	}
}

func TestWriteThroughAndReadBack(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s, err := Open(be, Options{CacheBytes: 64 * block.Size, SieveC: quickSieve(), Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := bytes.Repeat([]byte{0xAB}, 1024)
	if err := s.WriteAt(0, 0, data, 2048); err != nil {
		t.Fatal(err)
	}
	// The backend must already hold the data (write-through).
	got := make([]byte, 1024)
	if err := be.ReadAt(0, 0, got, 2048); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("write did not reach backend")
	}
	// Reading through the store returns the same bytes.
	got2 := make([]byte, 1024)
	if err := s.ReadAt(0, 0, got2, 2048); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, data) {
		t.Error("read mismatch")
	}
}

func TestSieveAdmitsHotBlockAndServesFromCache(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s, err := Open(be, Options{CacheBytes: 64 * block.Size, SieveC: quickSieve(), Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := bytes.Repeat([]byte{7}, 512)
	if err := be.WriteAt(0, 0, data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	// Misses 1..3: sieve counts; admission on the 3rd (T1=2 then T2=1).
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		if err := s.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Contains(0, 0, 0) {
		t.Fatal("hot block not admitted after 3 misses")
	}
	before := s.Stats()
	// Now mutate the backend directly; a cached read must still serve the
	// cached (coherent, since all writes go through the store) copy.
	if err := s.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.ReadHits != before.ReadHits+1 {
		t.Errorf("read hit not counted: %+v", after)
	}
	if after.BackendReads != before.BackendReads {
		t.Error("cached read still went to backend")
	}
	if !bytes.Equal(buf, data) {
		t.Error("cached read returned wrong data")
	}
}

func TestWriteUpdatesCachedBlock(t *testing.T) {
	clk := newFakeClock()
	s := openC(t, clk)
	buf := make([]byte, 512)
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		if err := s.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Contains(0, 0, 0) {
		t.Fatal("block not cached")
	}
	newData := bytes.Repeat([]byte{0x5A}, 512)
	if err := s.WriteAt(0, 0, newData, 0); err != nil {
		t.Fatal(err)
	}
	if s.Stats().WriteHits != 1 {
		t.Errorf("write hit not counted: %+v", s.Stats())
	}
	got := make([]byte, 512)
	if err := s.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Error("cached copy stale after write")
	}
}

func TestColdBlocksNeverAdmitted(t *testing.T) {
	clk := newFakeClock()
	s := openC(t, clk)
	buf := make([]byte, 512)
	for i := uint64(0); i < 50; i++ {
		clk.Advance(time.Second)
		if err := s.ReadAt(0, 0, buf, i*512); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.AllocWrites != 0 || st.CachedBlocks != 0 {
		t.Errorf("cold blocks admitted: %+v", st)
	}
}

func TestEvictionAtCapacity(t *testing.T) {
	clk := newFakeClock()
	s := openC(t, clk) // 64-block cache
	buf := make([]byte, 512)
	// Make 80 distinct blocks hot (3 misses each within the window).
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 80; i++ {
			clk.Advance(time.Millisecond)
			if err := s.ReadAt(0, 0, buf, i*512); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.CachedBlocks != 64 {
		t.Errorf("cached = %d, want capacity 64", st.CachedBlocks)
	}
	if st.Evictions < 16 {
		t.Errorf("evictions = %d, want ≥16", st.Evictions)
	}
}

func TestMultiBlockReadMixedHitMiss(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s, err := Open(be, Options{CacheBytes: 64 * block.Size, SieveC: quickSieve(), Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Prepare backend content across 8 blocks.
	content := make([]byte, 8*512)
	for i := range content {
		content[i] = byte(i / 512)
	}
	if err := be.WriteAt(0, 0, content, 0); err != nil {
		t.Fatal(err)
	}
	// Heat up blocks 2 and 5 only.
	buf := make([]byte, 512)
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		if err := s.ReadAt(0, 0, buf, 2*512); err != nil {
			t.Fatal(err)
		}
		if err := s.ReadAt(0, 0, buf, 5*512); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Contains(0, 0, 2*512) || !s.Contains(0, 0, 5*512) {
		t.Fatal("setup failed: blocks not cached")
	}
	// A spanning read must stitch cached and backend runs correctly.
	got := make([]byte, 8*512)
	before := s.Stats()
	if err := s.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("mixed hit/miss read returned wrong bytes")
	}
	after := s.Stats()
	if after.ReadHits-before.ReadHits != 2 {
		t.Errorf("hits delta = %d, want 2", after.ReadHits-before.ReadHits)
	}
	// Three missing runs: [0,1], [3,4], [6,7].
	if after.BackendReads-before.BackendReads != 3 {
		t.Errorf("backend reads delta = %d, want 3", after.BackendReads-before.BackendReads)
	}
}

func TestBackendErrorPropagates(t *testing.T) {
	clk := newFakeClock()
	faulty := store.NewFaulty(testBackend())
	s, err := Open(faulty, Options{CacheBytes: 64 * block.Size, SieveC: quickSieve(), Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	faulty.FailReads(true)
	buf := make([]byte, 512)
	if err := s.ReadAt(0, 0, buf, 0); !errors.Is(err, store.ErrInjected) {
		t.Errorf("got %v", err)
	}
	faulty.FailReads(false)
	// The store must remain usable and coherent after the error.
	if err := s.ReadAt(0, 0, buf, 0); err != nil {
		t.Errorf("store wedged after backend error: %v", err)
	}
}

// parkFirstWrite parks its first WriteAt until release is closed; every
// other call passes straight through.
type parkFirstWrite struct {
	store.Backend
	first   atomic.Bool
	parked  chan struct{} // closed once the first write is parked
	release chan struct{}
}

func (b *parkFirstWrite) WriteAt(server, volume int, p []byte, off uint64) error {
	if b.first.CompareAndSwap(false, true) {
		close(b.parked)
		<-b.release
	}
	return b.Backend.WriteAt(server, volume, p, off)
}

// TestWriteOrderSurvivesSlowBackend: a write whose backend call is slow to
// return keeps its block reserved, so a second write to the block waits
// for it. Once the first is released both succeed, and the backend, and
// so an uncached read, holds the second.
func TestWriteOrderSurvivesSlowBackend(t *testing.T) {
	be := &parkFirstWrite{Backend: testBackend(), parked: make(chan struct{}), release: make(chan struct{})}
	s, err := Open(be, Options{CacheBytes: 64 * block.Size, SieveC: quickSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v1, v2 := bytes.Repeat([]byte{0x01}, block.Size), bytes.Repeat([]byte{0x02}, block.Size)

	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- s.WriteAt(0, 0, v1, 0) }()
	<-be.parked
	go func() { second <- s.WriteAt(0, 0, v2, 0) }()
	select {
	case err := <-first:
		t.Fatalf("v1 write returned (%v) while its backend call was parked", err)
	case err := <-second:
		t.Fatalf("v2 write returned (%v) while the v1 write was still on the backend", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(be.release)
	if err := <-first; err != nil {
		t.Fatalf("v1 write: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("v2 write: %v", err)
	}

	got := make([]byte, block.Size)
	if err := be.Backend.ReadAt(0, 0, got, 0); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("backend holds %#x (err %v), want the acknowledged later write %#x", got[0], err, v2[0])
	}
	if _, err := s.Invalidate(0, 0, 0, block.Size); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadAt(0, 0, got, 0); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("read after Invalidate = %#x (err %v), want %#x", got[0], err, v2[0])
	}
}

// TestBadOffsetsFailOnlyTheirCaller: reads past the end of a volume each
// fail with the backend's geometry error, and valid I/O to that volume
// succeeds after them.
func TestBadOffsetsFailOnlyTheirCaller(t *testing.T) {
	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<20)
	s, err := Open(mem, Options{CacheBytes: 64 * block.Size, SieveC: quickSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, block.Size)
	for i := 0; i < 5; i++ {
		err := s.ReadAt(0, 0, buf, 1<<20+uint64(i)*block.Size)
		if err == nil || !strings.Contains(err.Error(), "beyond capacity") {
			t.Fatalf("read %d past the volume: err = %v, want the geometry error", i, err)
		}
	}
	if err := s.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatalf("valid read after bad offsets: %v", err)
	}
	if err := s.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatalf("valid write after bad offsets: %v", err)
	}
}

func TestVariantDEpochRotation(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s, err := Open(be, Options{
		CacheBytes: 64 * block.Size,
		Variant:    VariantD,
		DThreshold: 5,
		Epoch:      time.Hour,
		Now:        clk.Now,
		SpillDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Variant() != VariantD {
		t.Fatal("variant")
	}
	seed := bytes.Repeat([]byte{0xEE}, 512)
	if err := be.WriteAt(0, 0, seed, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	// Hot block: 6 accesses (≥ threshold 5). Cold blocks: 1 access each.
	for i := 0; i < 6; i++ {
		if err := s.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 10; i++ {
		if err := s.ReadAt(0, 0, buf, i*512); err != nil {
			t.Fatal(err)
		}
	}
	// Within the epoch nothing is admitted.
	if st := s.Stats(); st.CachedBlocks != 0 || st.Hits() != 0 {
		t.Fatalf("mid-epoch state: %+v", st)
	}
	// Cross the epoch boundary: the hot block is batch-allocated.
	clk.Advance(61 * time.Minute)
	if err := s.ReadAt(0, 0, buf, 11*512); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Epochs != 1 || st.EpochMoves != 1 || st.CachedBlocks != 1 {
		t.Fatalf("after rotation: %+v", st)
	}
	if !s.Contains(0, 0, 0) {
		t.Fatal("hot block not resident")
	}
	// It now serves hits with the correct data.
	if err := s.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, seed) {
		t.Error("epoch-moved block has wrong data")
	}
	if s.Stats().ReadHits != 1 {
		t.Errorf("hit not counted: %+v", s.Stats())
	}
}

func TestVariantDRetainsAcrossEpochs(t *testing.T) {
	clk := newFakeClock()
	s, err := Open(testBackend(), Options{
		CacheBytes: 64 * block.Size,
		Variant:    VariantD,
		DThreshold: 3,
		Epoch:      time.Hour,
		Now:        clk.Now,
		SpillDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 512)
	heat := func() {
		for i := 0; i < 4; i++ {
			if err := s.ReadAt(0, 0, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	heat()
	if err := s.RotateEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().EpochMoves; got != 1 {
		t.Fatalf("moves = %d", got)
	}
	heat() // hits now, and re-qualifies for the next epoch
	if err := s.RotateEpoch(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// Retained block must not be re-moved (replacement cancels allocation).
	if st.EpochMoves != 1 {
		t.Errorf("moves = %d, want 1 (retention)", st.EpochMoves)
	}
	if st.Epochs != 2 {
		t.Errorf("epochs = %d", st.Epochs)
	}
}

func TestClosedStoreRejectsIO(t *testing.T) {
	s := openC(t, newFakeClock())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := s.ReadAt(0, 0, buf, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close: %v", err)
	}
	if err := s.WriteAt(0, 0, buf, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
	if err := s.RotateEpoch(); !errors.Is(err, ErrClosed) {
		t.Errorf("rotate after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestConcurrentAccessSafe(t *testing.T) {
	clk := newFakeClock()
	s := openC(t, clk)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 512)
			for i := 0; i < 200; i++ {
				off := uint64((g*37 + i) % 64 * 512)
				var err error
				if i%3 == 0 {
					err = s.WriteAt(0, 0, buf, off)
				} else {
					err = s.ReadAt(0, 0, buf, off)
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.Reads+st.Writes != 8*200 {
		t.Errorf("accesses = %d, want 1600", st.Reads+st.Writes)
	}
}

func TestStatsHitRatio(t *testing.T) {
	var st Stats
	if st.HitRatio() != 0 {
		t.Error("empty ratio")
	}
	st.Reads, st.ReadHits = 10, 5
	st.Writes, st.WriteHits = 10, 5
	if st.HitRatio() != 0.5 || st.Hits() != 10 {
		t.Errorf("ratio = %v", st.HitRatio())
	}
}
