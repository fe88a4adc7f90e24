package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/sieve"
	"repro/internal/store"
)

// twoMissSieve promotes a block on its first miss and admits it on its
// second, so a cold block is a rejected miss and a once-missed block an
// admitted one.
func twoMissSieve() sieve.CConfig {
	return sieve.CConfig{IMCTSize: 1 << 12, T1: 1, T2: 2, Window: time.Hour, Subwindows: 4}
}

func inflightLen(s *Store) (n int) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.inflight)
		sh.mu.Unlock()
	}
	return n
}

// TestRejectedMissAllocatesNothing pins the common case of the paper's
// traffic: a read of blocks the sieve turns away goes to the backend and
// back without a flight, an in-flight entry or a single allocation.
func TestRejectedMissAllocatesNothing(t *testing.T) {
	for _, shards := range []int{1, 2} {
		mem := store.NewMem()
		mem.AddVolume(0, 0, 1<<24)
		s, err := Open(mem, Options{CacheBytes: 64 * block.Size, Shards: shards, SieveC: sieve.DefaultCConfig()})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, block.PageSize)
		off := uint64(0)
		allocs := testing.AllocsPerRun(200, func() {
			if err := s.ReadAt(0, 0, buf, off); err != nil {
				t.Fatal(err)
			}
			if n := inflightLen(s); n != 0 {
				t.Fatalf("%d in-flight entries after a rejected read", n)
			}
			off += block.PageSize // every read is cold
		})
		st, sv := s.Stats(), s.SieveStats()
		if allocs != 0 {
			t.Errorf("Shards %d: cold 8-block read: %v allocations, want 0", shards, allocs)
		}
		if st.ReadHits != 0 || st.AllocWrites != 0 || sv.Allocations != 0 || sv.Misses != st.Reads || st.BackendReads != st.Reads/block.BlocksPerPage {
			t.Errorf("Shards %d: the reads were not all rejected misses, one fetch each: %+v, sieve %+v", shards, st, sv)
		}
		s.Close()
	}
}

// TestAdmittedMissStillSingleFlight pins the case coalescing exists for:
// many callers missing one block that is about to earn a frame. The first
// takes the sieve's admission and a flight; the rest join it.
func TestAdmittedMissStillSingleFlight(t *testing.T) {
	const readers = 6
	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<20)
	want := bytes.Repeat([]byte{0x5C}, block.Size)
	if err := mem.WriteAt(0, 0, want, 3*block.Size); err != nil {
		t.Fatal(err)
	}
	gate := newGateBackend(mem)
	s, err := Open(gate, Options{CacheBytes: 64 * block.Size, Shards: 2, SieveC: twoMissSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One rejected miss brings the block's count to threshold − 1.
	go func() { <-gate.entered; close(gate.release) }()
	if err := s.ReadAt(0, 0, make([]byte, block.Size), 3*block.Size); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.AllocWrites != 0 || inflightLen(s) != 0 {
		t.Fatalf("the warming miss was not rejected: %+v", st)
	}
	gate.release = make(chan struct{})

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, block.Size)
			if err := s.ReadAt(0, 0, buf, 3*block.Size); err != nil {
				t.Error(err)
			} else if !bytes.Equal(buf, want) {
				t.Error("a reader of the burst got wrong data")
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); s.Stats().CoalescedReads < readers-1; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers joined the admitted flight", s.Stats().CoalescedReads, readers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	wg.Wait()

	st := s.Stats()
	if got := gate.fetchCount(3 * block.Size); got != 2 {
		t.Errorf("backend fetches = %d, want the warming one and one for the burst", got)
	}
	if st.AllocWrites != 1 || st.CoalescedReads != readers-1 || !s.Contains(0, 0, 3*block.Size) {
		t.Errorf("AllocWrites %d, CoalescedReads %d, want 1 and %d, block resident", st.AllocWrites, st.CoalescedReads, readers-1)
	}
}

// TestOpTraceCountsMixedRequest reads eight blocks of which two are
// resident (0 and 3), two are on their admitting miss (4 and 5) and four
// are cold, and checks the op's trace record, the bytes and the fetches.
func TestOpTraceCountsMixedRequest(t *testing.T) {
	for _, shards := range []int{1, 2} {
		mem := store.NewMem()
		mem.AddVolume(0, 0, 1<<20)
		image := make([]byte, block.PageSize)
		rand.New(rand.NewSource(5)).Read(image)
		if err := mem.WriteAt(0, 0, image, 0); err != nil {
			t.Fatal(err)
		}
		s, err := Open(mem, Options{CacheBytes: 64 * block.Size, Shards: shards, SieveC: twoMissSieve(), TraceSample: 1})
		if err != nil {
			t.Fatal(err)
		}
		one := make([]byte, block.Size)
		for _, b := range []uint64{0, 3, 0, 3, 4, 5} {
			if err := s.ReadAt(0, 0, one, b*block.Size); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]byte, block.PageSize)
		if err := s.ReadAt(0, 0, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, image) {
			t.Errorf("Shards %d: mixed read returned wrong bytes", shards)
		}
		tr := s.Traces()[0]
		if tr.Hits != 2 || tr.Misses != 6 || tr.Admitted != 2 || tr.Coalesced != 0 {
			t.Errorf("Shards %d: trace hits %d misses %d admitted %d coalesced %d, want 2 6 2 0",
				shards, tr.Hits, tr.Misses, tr.Admitted, tr.Coalesced)
		}
		if st := s.Stats(); st.CachedBlocks != 4 || st.BackendReads != 6+2 || inflightLen(s) != 0 {
			// The mixed read fetches [1,3) and [4,8): the hits split the runs.
			t.Errorf("Shards %d: %d cached, %d backend reads, %d in flight; want 4, 8, 0", shards, st.CachedBlocks, st.BackendReads, inflightLen(s))
		}
		s.Close()
	}
}

// slowReads holds fetched bytes for a moment before handing them over, so
// a write or invalidation can land between a fetch and its install.
type slowReads struct{ store.Backend }

func (b slowReads) ReadAt(server, volume int, p []byte, off uint64) error {
	err := b.Backend.ReadAt(server, volume, p, off)
	time.Sleep(10 * time.Microsecond)
	return err
}

// TestMissesRaceWritesAndInvalidate mixes rejected and admitted read
// misses with writes through the store and with out-of-band backend writes
// followed by Invalidate. A read may never install bytes fetched before a
// write or invalidation of the block completed. Each mutator owns a region
// and is its only writer, so it knows what a read of its blocks must
// return once its own call has completed, and checks that before every
// mutation; at quiesce every resident frame must equal the backend. The
// cache holds twice the range — pages hash to shards unevenly — so a wrong
// frame is never evicted unseen.
func TestMissesRaceWritesAndInvalidate(t *testing.T) {
	const (
		blocks = 1024
		seed   = 20260101
	)
	for _, shards := range []int{1, 2, 8} {
		mem := store.NewMem()
		mem.AddVolume(0, 0, blocks*block.Size)
		s, err := Open(slowReads{mem}, Options{CacheBytes: 2 * blocks * block.Size, Shards: shards, SieveC: twoMissSieve()})
		if err != nil {
			t.Fatal(err)
		}
		// worker runs ops at random places in [lo, hi), page-aligned or not:
		// of 1–8 blocks, or one time in sixteen of more than 64 KiB.
		var wg sync.WaitGroup
		worker := func(id, lo, hi, ops int, do func(buf []byte, first int, stamp uint64) error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(id)))
				buf := make([]byte, 160*block.Size)
				for i := 1; i <= ops; i++ {
					n := 1 + rng.Intn(8)
					if rng.Intn(16) == 0 {
						n = 129 + rng.Intn(32)
					}
					first := lo + rng.Intn(hi-lo-n+1)
					if err := do(buf[:n*block.Size], first, uint64(id)<<32|uint64(i)); err != nil {
						t.Errorf("seed %d Shards %d worker %d op %d: %v", seed, shards, id, i, err)
						return
					}
				}
			}()
		}
		// mutator checks that its region reads back as it last left it, then
		// stamps the blocks anew through put.
		var last [blocks]uint64
		mutator := func(put func(buf []byte, off uint64) error) func([]byte, int, uint64) error {
			return func(buf []byte, first int, stamp uint64) error {
				if err := s.ReadAt(0, 0, buf, uint64(first)*block.Size); err != nil {
					return err
				}
				for o := 0; o < len(buf); o += 8 {
					b := first + o/block.Size
					if got := binary.LittleEndian.Uint64(buf[o:]); got != last[b] {
						return fmt.Errorf("block %d reads stamp %#x after %#x was written", b, got, last[b])
					}
					binary.LittleEndian.PutUint64(buf[o:], stamp)
				}
				for b := first; b < first+len(buf)/block.Size; b++ {
					last[b] = stamp
				}
				return put(buf, uint64(first)*block.Size)
			}
		}
		for id := 0; id < 4; id++ {
			worker(id, 0, blocks, 2000, func(buf []byte, first int, _ uint64) error {
				return s.ReadAt(0, 0, buf, uint64(first)*block.Size)
			})
		}
		through := mutator(func(buf []byte, off uint64) error { return s.WriteAt(0, 0, buf, off) })
		worker(4, 0, blocks/4, 1000, through)
		worker(5, blocks/4, blocks/2, 1000, through)
		worker(6, blocks/2, blocks, 1000, mutator(func(buf []byte, off uint64) error {
			if err := mem.WriteAt(0, 0, buf, off); err != nil {
				return err
			}
			_, err := s.Invalidate(0, 0, off, len(buf))
			return err
		}))
		wg.Wait()

		st, sv := s.Stats(), s.SieveStats()
		if st.AllocWrites < 100 || sv.Misses-sv.Allocations < 100 || st.Evictions != 0 {
			t.Errorf("Shards %d: the run did not mix rejected and admitted misses, or evicted: %+v, sieve %+v", shards, st, sv)
		}
		want := make([]byte, block.Size)
		for _, sh := range s.shards {
			sh.mu.Lock()
			if len(sh.inflight) != 0 {
				t.Errorf("Shards %d: %d flights left at quiesce", shards, len(sh.inflight))
			}
			for _, key := range sh.tab.Keys() {
				slot, _ := sh.tab.Lookup(key)
				if err := mem.ReadAt(0, 0, want, key.Offset()); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sh.frame(slot), want) {
					t.Errorf("seed %d Shards %d: resident block %d holds stamp %#x, backend %#x", seed, shards,
						key.Offset()/block.Size, binary.LittleEndian.Uint64(sh.frame(slot)), binary.LittleEndian.Uint64(want))
				}
			}
			sh.mu.Unlock()
		}
		s.Close()
	}
}

// TestHitsProceedWhileSieveBusy pins what the sieve's own lock is for: with
// a shard's sieve held — a page's worth of counting, or an MCT prune — a hit
// in that shard is served at once, and only a miss waits.
func TestHitsProceedWhileSieveBusy(t *testing.T) {
	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<20)
	s, err := Open(mem, Options{CacheBytes: 64 * block.Size, SieveC: smallSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, block.PageSize)
	if err := s.ReadAt(0, 0, buf, 0); err != nil { // smallSieve admits on the first miss
		t.Fatal(err)
	}
	sh := s.shards[0]
	sh.sieveMu.Lock()
	read := func(off uint64) chan error {
		done := make(chan error, 1)
		go func() { done <- s.ReadAt(0, 0, make([]byte, block.PageSize), off) }()
		return done
	}
	select {
	case err := <-read(0):
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a hit waited for the sieve's lock")
	}
	miss := read(16 * block.PageSize)
	select {
	case <-miss:
		t.Error("a miss got past a held sieve")
	case <-time.After(20 * time.Millisecond):
	}
	sh.sieveMu.Unlock()
	if err := <-miss; err != nil {
		t.Error(err)
	}
	if st := s.Stats(); st.ReadHits != 8 || st.AllocWrites != 16 {
		t.Errorf("ReadHits %d, AllocWrites %d, want 8 and 16", st.ReadHits, st.AllocWrites)
	}
}
