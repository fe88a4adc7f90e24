package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/store"
)

// admit reads the block at off 3× (quickSieve admission threshold),
// advancing the clock between misses.
func admit(t *testing.T, s *Store, clk *fakeClock, off uint64) {
	t.Helper()
	buf := make([]byte, block.Size)
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		if err := s.ReadAt(0, 0, buf, off); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Contains(0, 0, off) {
		t.Fatalf("block at %d not admitted after 3 misses", off)
	}
}

func TestReadPinnedServesCachedRun(t *testing.T) {
	clk := newFakeClock()
	s := openC(t, clk)
	data := bytes.Repeat([]byte{0xAB}, 4*block.Size)
	if err := s.WriteAt(0, 0, data, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		admit(t, s, clk, uint64(i)*block.Size)
	}
	before := s.Stats()
	pr := s.ReadPinned(0, 0, 4*block.Size, 0)
	if pr == nil {
		t.Fatal("ReadPinned returned nil for fully cached run")
	}
	if pr.Bytes() != 4*block.Size || pr.Blocks() != 4 {
		t.Fatalf("pinned %d bytes / %d blocks, want %d / 4", pr.Bytes(), pr.Blocks(), 4*block.Size)
	}
	var got []byte
	for _, v := range pr.Views() {
		got = append(got, v...)
	}
	if !bytes.Equal(got, data) {
		t.Error("pinned views carry wrong data")
	}
	pr.Release()
	after := s.Stats()
	if d := after.PinnedReads - before.PinnedReads; d != 4 {
		t.Errorf("PinnedReads delta = %d, want 4", d)
	}
	if d := after.ReadHits - before.ReadHits; d != 4 {
		t.Errorf("ReadHits delta = %d, want 4", d)
	}
	if after.BackendReads != before.BackendReads {
		t.Error("pinned read went to backend")
	}
}

func TestReadPinnedColdMissFallsBack(t *testing.T) {
	clk := newFakeClock()
	s := openC(t, clk)
	if pr := s.ReadPinned(0, 0, block.Size, 0); pr != nil {
		t.Fatal("ReadPinned served a cold block")
	}
	// Bad geometry falls back too rather than erroring.
	if pr := s.ReadPinned(0, 0, 100, 0); pr != nil {
		t.Fatal("ReadPinned accepted unaligned length")
	}
	if pr := s.ReadPinned(0, 0, 0, 0); pr != nil {
		t.Fatal("ReadPinned accepted zero length")
	}
}

// A partially resident run serves only the all-hit prefix; the caller
// reads the rest through ReadAt.
func TestReadPinnedServesPrefixOnly(t *testing.T) {
	clk := newFakeClock()
	s := openC(t, clk)
	admit(t, s, clk, 0)
	pr := s.ReadPinned(0, 0, 2*block.Size, 0)
	if pr == nil {
		t.Fatal("ReadPinned returned nil despite cached first block")
	}
	defer pr.Release()
	if pr.Blocks() != 1 {
		t.Fatalf("pinned %d blocks, want 1 (only the prefix is cached)", pr.Blocks())
	}
}

// Writing a pinned block must not mutate the pinned view: the write goes
// copy-on-write into a fresh frame.
func TestPinnedCopyOnWrite(t *testing.T) {
	clk := newFakeClock()
	s := openC(t, clk)
	old := bytes.Repeat([]byte{0x11}, block.Size)
	if err := s.WriteAt(0, 0, old, 0); err != nil {
		t.Fatal(err)
	}
	admit(t, s, clk, 0)
	pr := s.ReadPinned(0, 0, block.Size, 0)
	if pr == nil {
		t.Fatal("ReadPinned returned nil for cached block")
	}
	newData := bytes.Repeat([]byte{0x22}, block.Size)
	if err := s.WriteAt(0, 0, newData, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pr.Views()[0], old) {
		t.Error("write mutated a pinned frame")
	}
	pr.Release()
	got := make([]byte, block.Size)
	if err := s.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Error("cache lost the write that copy-on-wrote around the pin")
	}
}

// Evicting a pinned block must not recycle its frame into the free list
// while the pin is live: later allocations would scribble over data the
// wire is still sending.
func TestPinnedFrameSurvivesEviction(t *testing.T) {
	clk := newFakeClock()
	mem := testBackend()
	s, err := Open(mem, Options{
		CacheBytes: 8 * block.Size,
		SieveC:     quickSieve(),
		Shards:     1,
		Now:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	want := bytes.Repeat([]byte{0x77}, block.Size)
	if err := s.WriteAt(0, 0, want, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, block.Size)
	admit(t, s, clk, 0)
	pr := s.ReadPinned(0, 0, block.Size, 0)
	if pr == nil {
		t.Fatal("ReadPinned returned nil for cached block")
	}
	// Hammer enough other blocks through the 8-block cache to evict the
	// pinned one and churn the free list hard.
	for blk := uint64(1); blk < 64; blk++ {
		for i := 0; i < 3; i++ {
			clk.Advance(time.Second)
			if err := s.ReadAt(0, 0, buf, blk*block.Size); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.WriteAt(0, 0, buf, blk*block.Size); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(pr.Views()[0], want) {
		t.Fatal("eviction churn corrupted a pinned frame")
	}
	pr.Release()
	// After release the frame is recyclable; keep churning to prove the
	// store stays consistent.
	for blk := uint64(64); blk < 80; blk++ {
		clk.Advance(time.Second)
		if err := s.ReadAt(0, 0, buf, blk*block.Size); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGroupCommitWindowValidation(t *testing.T) {
	if _, err := Open(testBackend(), Options{GroupCommitWindow: -time.Second}); err == nil {
		t.Error("negative group-commit window accepted")
	}
}

// Concurrent flushes inside the group-commit window collapse into one
// backend sweep: one starter, the rest join its batch.
func TestGroupCommitCoalescesFlushes(t *testing.T) {
	clk := newFakeClock()
	mem := testBackend()
	s, err := Open(mem, Options{
		CacheBytes:        64 * block.Size,
		SieveC:            quickSieve(),
		WriteBack:         true,
		GroupCommitWindow: 30 * time.Millisecond,
		Now:               clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	data := bytes.Repeat([]byte{0x5A}, block.Size)
	admit(t, s, clk, 0)
	if err := s.WriteAt(0, 0, data, 0); err != nil { // write hit → dirty
		t.Fatal(err)
	}
	if s.Stats().DirtyBlocks == 0 {
		t.Fatal("write-back hit did not dirty the block")
	}

	const flushers = 8
	var wg sync.WaitGroup
	errs := make(chan error, flushers)
	for i := 0; i < flushers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.Flush()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DirtyBlocks != 0 {
		t.Errorf("DirtyBlocks = %d after flush, want 0", st.DirtyBlocks)
	}
	if st.GroupCommits+st.CoalescedFlushes != flushers {
		t.Errorf("GroupCommits (%d) + CoalescedFlushes (%d) != %d flush calls",
			st.GroupCommits, st.CoalescedFlushes, flushers)
	}
	if st.GroupCommits == flushers {
		t.Error("no flushes coalesced despite concurrent callers inside the window")
	}
	got := make([]byte, block.Size)
	if err := mem.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("flushed data did not reach the backend")
	}
}

// With no window configured, Flush keeps its original synchronous
// semantics and counts nothing.
func TestFlushWithoutWindowUnchanged(t *testing.T) {
	clk := newFakeClock()
	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<24)
	s, err := Open(mem, Options{
		CacheBytes: 64 * block.Size,
		SieveC:     quickSieve(),
		WriteBack:  true,
		Now:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	admit(t, s, clk, 0)
	if err := s.WriteAt(0, 0, bytes.Repeat([]byte{1}, block.Size), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.GroupCommits != 0 || st.CoalescedFlushes != 0 {
		t.Errorf("group-commit counters moved without a window: %d/%d",
			st.GroupCommits, st.CoalescedFlushes)
	}
}

// TestCachedBlocksNoPinDoubleCount (satellite: stats audit): evicting a
// pinned block parks its frame until Release; CachedBlocks (= tag
// residency) must not count the parked frame, and PinnedFrames reports it.
func TestCachedBlocksNoPinDoubleCount(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s, err := Open(be, Options{
		CacheBytes: 2 * block.Size, // tiny: two admissions evict the first
		SieveC:     quickSieve(),
		Now:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	admit(t, s, clk, 0)
	pr := s.ReadPinned(0, 0, block.Size, 0)
	if pr == nil {
		t.Fatal("ReadPinned missed an admitted block")
	}
	if st := s.Stats(); st.CachedBlocks != 1 || st.PinnedFrames != 1 {
		t.Fatalf("pinned resident block: %+v", st)
	}
	// Evict block 0 by admitting two more into the 2-block cache. Its
	// frame is pin-parked, not freed.
	admit(t, s, clk, block.Size)
	admit(t, s, clk, 2*block.Size)
	st := s.Stats()
	if s.Contains(0, 0, 0) {
		t.Fatal("pinned victim still tag-resident")
	}
	if st.CachedBlocks != 2 {
		t.Fatalf("CachedBlocks = %d counts a pin-parked frame", st.CachedBlocks)
	}
	if st.PinnedFrames != 1 {
		t.Fatalf("PinnedFrames = %d with one parked pin", st.PinnedFrames)
	}
	pr.Release()
	if st := s.Stats(); st.PinnedFrames != 0 {
		t.Fatalf("PinnedFrames = %d after Release", st.PinnedFrames)
	}
}
