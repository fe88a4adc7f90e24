package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/sieve"
	"repro/internal/store"
)

func openWB(t *testing.T, clk *fakeClock, be Backend) *Store {
	t.Helper()
	s, err := Open(be, Options{
		CacheBytes: 64 * block.Size,
		SieveC:     quickSieve(),
		WriteBack:  true,
		Now:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestWriteBackDefersBackendWrites(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s := openWB(t, clk, be)
	buf := make([]byte, block.Size)
	// Heat the block so it is cached.
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		if err := s.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Contains(0, 0, 0) {
		t.Fatal("block not cached")
	}
	backendWritesBefore := s.Stats().BackendWrites
	data := bytes.Repeat([]byte{0x77}, block.Size)
	if err := s.WriteAt(0, 0, data, 0); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BackendWrites != backendWritesBefore {
		t.Error("write-back hit still wrote through")
	}
	if st.DirtyBlocks != 1 || st.WriteHits != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The backend is stale; the store serves the new data.
	stale := make([]byte, block.Size)
	if err := be.ReadAt(0, 0, stale, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(stale, data) {
		t.Error("backend already has the data; write-back not deferred")
	}
	got := make([]byte, block.Size)
	if err := s.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("store serves stale data")
	}
	// Flush pushes it down.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := be.ReadAt(0, 0, stale, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stale, data) {
		t.Error("flush did not reach the backend")
	}
	st = s.Stats()
	if st.DirtyBlocks != 0 || st.FlushWrites != 1 {
		t.Errorf("post-flush stats = %+v", st)
	}
}

func TestWriteBackMissesStillWriteThrough(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s := openWB(t, clk, be)
	// An uncached, unadmitted write must reach the backend immediately.
	data := bytes.Repeat([]byte{0x11}, 2*block.Size)
	if err := s.WriteAt(0, 0, data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := be.ReadAt(0, 0, got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("unadmitted write-back miss lost")
	}
}

func TestWriteBackEvictionFlushes(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s := openWB(t, clk, be) // 64-block cache
	buf := make([]byte, block.Size)
	// Dirty one block via write admission (T1=2,T2=2: admitted on the
	// 4th miss — three write misses then one more).
	data := bytes.Repeat([]byte{0x42}, block.Size)
	for i := 0; i < 4; i++ {
		clk.Advance(time.Second)
		if err := s.WriteAt(0, 0, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Contains(0, 0, 0) || s.Stats().DirtyBlocks != 1 {
		t.Fatalf("setup: %+v", s.Stats())
	}
	// Now force eviction pressure: heat 70 other blocks.
	for round := 0; round < 4; round++ {
		for i := uint64(1); i <= 70; i++ {
			clk.Advance(time.Millisecond)
			if err := s.ReadAt(0, 0, buf, i*8192); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if s.Contains(0, 0, 0) {
		t.Fatal("dirty block never evicted; test ineffective")
	}
	if st.FlushWrites == 0 {
		t.Error("eviction did not flush the dirty block")
	}
	got := make([]byte, block.Size)
	if err := be.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("evicted dirty data lost")
	}
}

func TestWriteBackInvalidateFlushesFirst(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s := openWB(t, clk, be)
	data := bytes.Repeat([]byte{0x9C}, block.Size)
	for i := 0; i < 4; i++ {
		clk.Advance(time.Second)
		if err := s.WriteAt(0, 0, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().DirtyBlocks != 1 {
		t.Fatalf("setup: %+v", s.Stats())
	}
	if _, err := s.Invalidate(0, 0, 0, block.Size); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, block.Size)
	if err := be.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("invalidate dropped dirty data without flushing")
	}
}

func TestWriteBackCloseFlushes(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s, err := Open(be, Options{
		CacheBytes: 64 * block.Size,
		SieveC:     quickSieve(),
		WriteBack:  true,
		Now:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xD1}, block.Size)
	for i := 0; i < 4; i++ {
		clk.Advance(time.Second)
		if err := s.WriteAt(0, 0, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, block.Size)
	if err := be.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("Close did not flush dirty data")
	}
}

// TestWriteBackModel extends the reference-model property test to
// write-back mode: reads through the store must always match the model even
// though the backend lags, and a final Flush must bring the backend level.
func TestWriteBackModel(t *testing.T) {
	const volBytes = 1 << 17
	rng := rand.New(rand.NewSource(321))
	clk := newFakeClock()
	be := store.NewMem()
	be.AddVolume(0, 0, volBytes)
	s, err := Open(be, Options{
		CacheBytes: 32 * block.Size,
		SieveC:     sieve.CConfig{IMCTSize: 256, T1: 2, T2: 1, Window: time.Hour, Subwindows: 4},
		WriteBack:  true,
		Now:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	model := make([]byte, volBytes)
	for i := 0; i < 3000; i++ {
		nBlocks := 1 + rng.Intn(4)
		off := uint64(rng.Intn(volBytes/block.Size-nBlocks+1)) * block.Size
		if rng.Intn(2) == 0 {
			off = uint64(rng.Intn(8)) * block.Size // hot region
		}
		n := nBlocks * block.Size
		clk.Advance(time.Duration(rng.Intn(500)) * time.Millisecond)
		switch rng.Intn(5) {
		case 0, 1:
			data := make([]byte, n)
			rng.Read(data)
			if err := s.WriteAt(0, 0, data, off); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			copy(model[off:off+uint64(n)], data)
		case 2:
			if rng.Intn(10) == 0 {
				if err := s.Flush(); err != nil {
					t.Fatalf("op %d flush: %v", i, err)
				}
			}
			fallthrough
		default:
			got := make([]byte, n)
			if err := s.ReadAt(0, 0, got, off); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if !bytes.Equal(got, model[off:off+uint64(n)]) {
				t.Fatalf("op %d: read diverged", i)
			}
		}
	}
	// Final flush: the backend must equal the model everywhere.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, volBytes)
	if err := be.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, model) {
		t.Fatal("backend diverged from model after full flush")
	}
	if s.Stats().FlushWrites == 0 {
		t.Error("no flush writes; write-back never engaged")
	}
}

// writeSizes records the length of every backend write.
type writeSizes struct {
	store.Backend
	sizes []int
}

func (w *writeSizes) WriteAt(server, volume int, p []byte, off uint64) error {
	w.sizes = append(w.sizes, len(p))
	return w.Backend.WriteAt(server, volume, p, off)
}

// TestDirtyPageFlushesAsOneWrite: a shard holds whole pages, so a dirty
// aligned 4 KiB page is one contiguous run in its shard's flush — one
// backend write, where per-block placement scattered it over up to eight.
func TestDirtyPageFlushesAsOneWrite(t *testing.T) {
	for _, shards := range []int{2, 8} {
		be := &writeSizes{Backend: testBackend()}
		s, err := Open(be, Options{CacheBytes: 256 * block.Size, Shards: shards, SieveC: smallSieve(), WriteBack: true})
		if err != nil {
			t.Fatal(err)
		}
		page := bytes.Repeat([]byte{0x5A}, block.PageSize)
		if err := s.WriteAt(0, 0, page, 5*block.PageSize); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.DirtyBlocks != block.BlocksPerPage || len(be.sizes) != 0 {
			t.Fatalf("Shards %d: the write was not absorbed whole: %d dirty, backend writes %v", shards, st.DirtyBlocks, be.sizes)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(be.sizes) != 1 || be.sizes[0] != block.PageSize {
			t.Errorf("Shards %d: Flush of one dirty page issued writes of %v bytes, want one of %d", shards, be.sizes, block.PageSize)
		}
		s.Close()
	}
}

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
