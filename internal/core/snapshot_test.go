package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/store"
)

// heatBlocks makes the given offsets resident (quickSieve admits on the
// 3rd miss) in the order given, so the last one is MRU.
func heatBlocks(t *testing.T, s *Store, clk *fakeClock, offsets ...uint64) {
	t.Helper()
	buf := make([]byte, block.Size)
	for _, off := range offsets {
		for i := 0; i < 3; i++ {
			clk.Advance(time.Second)
			if err := s.ReadAt(0, 0, buf, off); err != nil {
				t.Fatal(err)
			}
		}
		if !s.Contains(0, 0, off) {
			t.Fatalf("block @%d not admitted", off)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s, err := Open(be, Options{CacheBytes: 64 * block.Size, SieveC: quickSieve(), Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Give the blocks recognizable contents via the write-through path.
	for i, off := range []uint64{0, 512, 1024} {
		data := bytes.Repeat([]byte{byte(i + 1)}, block.Size)
		if err := s.WriteAt(0, 0, data, off); err != nil {
			t.Fatal(err)
		}
	}
	heatBlocks(t, s, clk, 0, 512, 1024)

	var snap bytes.Buffer
	if err := s.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same backend restores warm.
	s2, err := Open(be, Options{CacheBytes: 64 * block.Size, SieveC: quickSieve(), Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.LoadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.CachedBlocks != 3 {
		t.Fatalf("restored %d blocks, want 3", st.CachedBlocks)
	}
	// First read after restore is already a hit with the right data.
	buf := make([]byte, block.Size)
	if err := s2.ReadAt(0, 0, buf, 512); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Errorf("restored data wrong: %x", buf[0])
	}
	if got := s2.Stats(); got.ReadHits != 1 || got.BackendReads != 0 {
		t.Errorf("restore not warm: %+v", got)
	}
}

func TestSnapshotPreservesLRUOrder(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s, err := Open(be, Options{CacheBytes: 64 * block.Size, SieveC: quickSieve(), Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	heatBlocks(t, s, clk, 0, 512, 1024) // MRU order: 1024, 512, 0

	var snap bytes.Buffer
	if err := s.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// Restore into a 2-block store: only the two hottest (1024, 512)
	// survive the capacity cut.
	s2, err := Open(be, Options{CacheBytes: 2 * block.Size, SieveC: quickSieve(), Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.LoadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !s2.Contains(0, 0, 1024) || !s2.Contains(0, 0, 512) {
		t.Error("hot blocks lost in capacity cut")
	}
	if s2.Contains(0, 0, 0) {
		t.Error("LRU block should have been dropped")
	}
}

// TestSnapshotCutKeepsHottestAcrossShards saves an 8-shard store whose
// write order interleaves its shards and loads it into a one-shard store of
// half the size: the load keeps the 128 most recently written blocks, in
// MRU order, not whole low-numbered shards.
func TestSnapshotCutKeepsHottestAcrossShards(t *testing.T) {
	const shards, perShard = 8, 32
	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<20)
	src, err := Open(mem, Options{CacheBytes: shards * perShard * block.Size, Shards: shards, SieveC: smallSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var byShard [shards][]block.Key
	for k := block.MakeKey(0, 0, 0); len(byShard[0]) < perShard || len(byShard[shards-1]) < perShard; k++ {
		if si := src.shardIndex(k); len(byShard[si]) < perShard {
			byShard[si] = append(byShard[si], k)
		}
	}
	// Round r writes every shard's r-th key, shard 0 last: the global MRU
	// order is round 31's shards 0…7, then round 30's, and so on.
	var mru []block.Key
	p := make([]byte, block.Size)
	for r := 0; r < perShard; r++ {
		for si := shards - 1; si >= 0; si-- {
			k := byShard[si][r]
			if err := src.WriteAt(0, 0, p, k.Offset()); err != nil {
				t.Fatal(err)
			}
			mru = append([]block.Key{k}, mru...)
		}
	}
	var snap bytes.Buffer
	if err := src.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	dst, err := Open(mem, Options{CacheBytes: shards * perShard / 2 * block.Size, SieveC: smallSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if err := dst.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.shards[0].tab.Keys(), mru[:len(mru)/2]; !slices.Equal(got, want) {
		kept := 0
		for _, k := range want {
			if slices.Contains(got, k) {
				kept++
			}
		}
		t.Errorf("kept %d of the %d most recent blocks; MRU order %v, want %v", kept, len(want), got, want)
	}
}

func TestLoadSnapshotReplacesContents(t *testing.T) {
	clk := newFakeClock()
	be := testBackend()
	s, err := Open(be, Options{CacheBytes: 64 * block.Size, SieveC: quickSieve(), Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	heatBlocks(t, s, clk, 0)
	var snap bytes.Buffer
	if err := s.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	// Heat a different block, then restore: only the snapshot's content
	// must remain.
	heatBlocks(t, s, clk, 2048)
	if err := s.LoadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(0, 0, 0) || s.Contains(0, 0, 2048) {
		t.Error("LoadSnapshot did not replace contents")
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	s := openC(t, newFakeClock())
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("SVS1"), // truncated header
		append([]byte("SVS1"), make([]byte, 17)...), // count says 0 entries — actually valid
	}
	for i, data := range cases[:3] {
		if err := s.LoadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("case %d: want ErrBadSnapshot, got %v", i, err)
		}
	}
	// Header with zero entries is a valid empty snapshot.
	if err := s.LoadSnapshot(bytes.NewReader(cases[3])); err != nil {
		t.Errorf("empty snapshot rejected: %v", err)
	}
	// Truncated entry payload.
	var snap bytes.Buffer
	snap.WriteString("SVS1")
	snap.WriteByte(0)
	snap.Write(make([]byte, 8))                // capacity
	snap.Write([]byte{0, 0, 0, 0, 0, 0, 0, 1}) // count = 1
	snap.Write(make([]byte, 8+100))            // entry cut short
	if err := s.LoadSnapshot(bytes.NewReader(snap.Bytes())); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("truncated entry: %v", err)
	}
}

// TestLoadSnapshotCountIsNotAnAllocation: a header is only a claim. A
// 21-byte stream that claims 2^40 entries against a 1 GiB store must fail
// as a bad snapshot without allocating for the claim — a slice sized to
// the capacity would be 2^21 entries, 64 MiB.
func TestLoadSnapshotCountIsNotAnAllocation(t *testing.T) {
	s, err := Open(testBackend(), Options{CacheBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var hdr bytes.Buffer
	if err := binary.Write(&hdr, binary.BigEndian, snapHeader{snapMagic, 0, 1 << 21, 1 << 40}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = s.LoadSnapshot(&hdr)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("want ErrBadSnapshot, got %v", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("a 21-byte snapshot allocated %d bytes", d)
	}
}

func TestSnapshotClosedStore(t *testing.T) {
	s := openC(t, newFakeClock())
	s.Close()
	var buf bytes.Buffer
	if err := s.SaveSnapshot(&buf); !errors.Is(err, ErrClosed) {
		t.Errorf("save on closed: %v", err)
	}
	if err := s.LoadSnapshot(&buf); !errors.Is(err, ErrClosed) {
		t.Errorf("load on closed: %v", err)
	}
}

// FuzzLoadSnapshot feeds arbitrary bytes to the snapshot loader: it must
// reject garbage with ErrBadSnapshot (or load a valid prefix) and never
// panic or corrupt the store.
func FuzzLoadSnapshot(f *testing.F) {
	f.Add([]byte("SVS1"))
	f.Add(append([]byte("SVS1\x00"), make([]byte, 16)...))
	valid := func() []byte {
		clk := newFakeClock()
		be := testBackend()
		s, err := Open(be, Options{CacheBytes: 64 * block.Size, SieveC: quickSieve(), Now: clk.Now})
		if err != nil {
			panic(err)
		}
		defer s.Close()
		buf := make([]byte, block.Size)
		for i := 0; i < 3; i++ {
			clk.Advance(time.Second)
			s.ReadAt(0, 0, buf, 0)
		}
		var b bytes.Buffer
		s.SaveSnapshot(&b)
		return b.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(testBackend(), Options{CacheBytes: 16 * block.Size, SieveC: quickSieve()})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		_ = s.LoadSnapshot(bytes.NewReader(data))
		st := s.Stats()
		if st.CachedBlocks > st.CapacityBlocks {
			t.Fatalf("snapshot load overfilled the cache: %+v", st)
		}
		// The store must remain usable regardless.
		buf := make([]byte, block.Size)
		if err := s.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatalf("store wedged after fuzzed snapshot: %v", err)
		}
	})
}
