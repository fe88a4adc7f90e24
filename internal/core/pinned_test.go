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
	if pr.Bytes() != 4*block.Size || len(pr.Views()) != 4 {
		t.Fatalf("pinned %d bytes / %d blocks, want %d / 4", pr.Bytes(), len(pr.Views()), 4*block.Size)
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
	if len(pr.Views()) != 1 {
		t.Fatalf("pinned %d blocks, want 1 (only the prefix is cached)", len(pr.Views()))
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

// Concurrent flushes share sweeps: every call either starts one or rides
// on another caller's, and together they write the dirty block back.
func TestGroupCommitCoalescesFlushes(t *testing.T) {
	clk := newFakeClock()
	mem := testBackend()
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
	got := make([]byte, block.Size)
	if err := mem.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("flushed data did not reach the backend")
	}
}

// TestFlushCoalescesBehindRunningSweep holds the first sweep inside the
// backend. Every Flush arriving meanwhile waits for it, and all of them
// share one follow-up sweep — two sweeps for ten calls — which still
// writes back a block dirtied while the first sweep was held.
func TestFlushCoalescesBehindRunningSweep(t *testing.T) {
	clk := newFakeClock()
	mem := testBackend()
	gate := &gateWriteBackend{Backend: mem, entered: make(chan struct{}, 8), release: make(chan struct{})}
	s, err := Open(gate, Options{
		CacheBytes: 64 * block.Size,
		SieveC:     quickSieve(),
		WriteBack:  true,
		Now:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	released := false
	defer func() {
		if !released {
			close(gate.release)
		}
	}()

	late := bytes.Repeat([]byte{0xC3}, block.Size)
	admit(t, s, clk, 0)
	admit(t, s, clk, block.PageSize) // another page: not in the first sweep
	if err := s.WriteAt(0, 0, bytes.Repeat([]byte{0x3C}, block.Size), 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 10)
	flush := func() {
		defer wg.Done()
		errs <- s.Flush()
	}
	wg.Add(1)
	go flush()
	<-gate.entered // sweep 1 is writing block 0 back, and stays there

	const joiners = 8
	wg.Add(joiners)
	for i := 0; i < joiners; i++ {
		go flush()
	}
	waitFor := func(what string, cond func(Stats) bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(s.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %+v", what, s.Stats())
			}
		}
	}
	// One joiner queues the follow-up sweep; the other seven ride on it.
	waitFor("flushes arriving during a sweep did not coalesce", func(st Stats) bool { return st.CoalescedFlushes == joiners-1 })

	// A block dirtied after sweep 1 took its dirty list, then a Flush: the
	// follow-up sweep starts after this call, so it must write the block.
	if err := s.WriteAt(0, 0, late, block.PageSize); err != nil {
		t.Fatal(err)
	}
	clean := make(chan bool, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := s.Flush()
		got := make([]byte, block.Size)
		if rerr := mem.ReadAt(0, 0, got, block.PageSize); err == nil {
			err = rerr
		}
		errs <- err
		clean <- bytes.Equal(got, late)
	}()
	waitFor("the late Flush did not join the queued sweep", func(st Stats) bool { return st.CoalescedFlushes == joiners })

	close(gate.release)
	released = true
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !<-clean {
		t.Error("a block dirtied before its Flush was not on the backend when that Flush returned")
	}
	st := s.Stats()
	if st.GroupCommits != 2 || st.GroupCommits+st.CoalescedFlushes != 1+joiners+1 {
		t.Errorf("GroupCommits %d, CoalescedFlushes %d: want 2 sweeps for %d calls",
			st.GroupCommits, st.CoalescedFlushes, 1+joiners+1)
	}
	if st.DirtyBlocks != 0 {
		t.Errorf("DirtyBlocks = %d after the flushes, want 0", st.DirtyBlocks)
	}
}

// A lone Flush — the only kind bench issues — starts one sweep and rides
// on none.
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
	for i := 1; i <= 2; i++ {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.GroupCommits != int64(i) || st.CoalescedFlushes != 0 || st.DirtyBlocks != 0 {
			t.Errorf("after %d lone flushes: GroupCommits %d, CoalescedFlushes %d, DirtyBlocks %d",
				i, st.GroupCommits, st.CoalescedFlushes, st.DirtyBlocks)
		}
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
