package core

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/sieve"
	"repro/internal/store"
)

// smallSieve admits a block on its 1st miss (T1=1 promotes it, T2=1
// allocates in the same consultation) — the fastest way for tests to
// exercise the admission path.
func smallSieve() sieve.CConfig {
	return sieve.CConfig{IMCTSize: 1 << 12, T1: 1, T2: 1, Window: time.Hour, Subwindows: 4}
}

// gateBackend wraps a Backend and blocks every ReadAt until released,
// counting per-key fetches. It lets tests hold backend I/O "in the air"
// and observe what the store does meanwhile.
type gateBackend struct {
	store.Backend
	mu      sync.Mutex
	fetches map[uint64]int // key offset -> backend read count
	entered chan struct{}  // one token per ReadAt that has started
	release chan struct{}  // closed (or fed) to let reads finish
}

func newGateBackend(inner store.Backend) *gateBackend {
	return &gateBackend{
		Backend: inner,
		fetches: make(map[uint64]int),
		entered: make(chan struct{}, 1024),
		release: make(chan struct{}),
	}
}

func (g *gateBackend) ReadAt(server, volume int, p []byte, off uint64) error {
	g.mu.Lock()
	g.fetches[off]++
	g.mu.Unlock()
	g.entered <- struct{}{}
	<-g.release
	return g.Backend.ReadAt(server, volume, p, off)
}

// drain discards entered tokens left over from already-released reads, so
// the next token observed really is the next backend read.
func (g *gateBackend) drain() {
	for {
		select {
		case <-g.entered:
		default:
			return
		}
	}
}

func (g *gateBackend) fetchCount(off uint64) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fetches[off]
}

// TestCloseWaitsOutStagingRotation: a Close arriving while an epoch
// rotation's batch fetch is in the air must wait for the rotation to
// commit. The rotation needs the logger and the spill directory — owned by
// the store here, so Close removes it — until then.
func TestCloseWaitsOutStagingRotation(t *testing.T) {
	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<20)
	gate := newGateBackend(mem)
	clk := newFakeClock()
	st, err := Open(gate, Options{CacheBytes: 64 * block.Size, Variant: VariantD, DThreshold: 2, Epoch: time.Hour, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	close(gate.release) // gate open while block 5 gets hot
	buf := make([]byte, block.Size)
	for i := 0; i < 2; i++ {
		if err := st.ReadAt(0, 0, buf, 5*block.Size); err != nil {
			t.Fatal(err)
		}
	}
	gate.release = make(chan struct{})
	gate.drain()

	rotated := make(chan error, 1)
	go func() { rotated <- st.RotateEpoch() }()
	select {
	case <-gate.entered: // the rotation's batch fetch is now in the air
	case <-time.After(5 * time.Second):
		t.Fatal("rotation never reached the backend")
	}
	closed := make(chan error, 1)
	go func() { closed <- st.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a rotation was staging", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := os.Stat(st.ownSpill); err != nil {
		t.Fatalf("spill directory gone before the rotation committed: %v", err)
	}

	close(gate.release)
	if err := <-rotated; err != nil {
		t.Fatalf("rotation: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := st.Stats(); got.Epochs != 1 || got.RotateFailures != 0 || got.ResetFailures != 0 {
		t.Errorf("epochs=%d rotateFailures=%d resetFailures=%d, want a committed rotation",
			got.Epochs, got.RotateFailures, got.ResetFailures)
	}
	if _, err := os.Stat(st.ownSpill); !os.IsNotExist(err) {
		t.Errorf("Close left its spill directory behind: %v", err)
	}
}

// TestConcurrentMissesOverlap proves the store no longer holds its lock
// across backend I/O: two misses on different keys must both reach the
// backend before either completes. Under the old one-big-lock design the
// second read could not enter the backend until the first returned, and
// this test would time out.
func TestConcurrentMissesOverlap(t *testing.T) {
	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<20)
	gate := newGateBackend(mem)
	st, err := Open(gate, Options{CacheBytes: 64 * block.Size, SieveC: smallSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, block.Size)
			if err := st.ReadAt(0, 0, buf, uint64(i)*block.Size); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-gate.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("backend reads did not overlap: store lock held across backend I/O")
		}
	}
	close(gate.release)
	wg.Wait()
}

// TestSingleFlightCoalescing asserts the single-flight property: a burst
// of concurrent misses on one key results in exactly one backend fetch,
// with every caller served the fetched bytes.
func TestSingleFlightCoalescing(t *testing.T) {
	const followers = 8
	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<20)
	want := bytes.Repeat([]byte{0xAB}, block.Size)
	if err := mem.WriteAt(0, 0, want, 0); err != nil {
		t.Fatal(err)
	}
	gate := newGateBackend(mem)
	st, err := Open(gate, Options{CacheBytes: 64 * block.Size, SieveC: smallSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var wg sync.WaitGroup
	readOne := func() {
		defer wg.Done()
		buf := make([]byte, block.Size)
		if err := st.ReadAt(0, 0, buf, 0); err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(buf, want) {
			t.Error("coalesced read returned wrong data")
		}
	}

	// Leader takes the miss and blocks inside the backend.
	wg.Add(1)
	go readOne()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached the backend")
	}
	// Followers miss on the same key while the fetch is in flight; wait
	// until the store has registered every one of them as coalesced.
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go readOne()
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().CoalescedReads < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d reads coalesced", st.Stats().CoalescedReads, followers)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)
	wg.Wait()

	if got := gate.fetchCount(0); got != 1 {
		t.Errorf("backend fetches for the burst = %d, want 1 (single-flight)", got)
	}
	if st.Stats().BackendReads != 1 {
		t.Errorf("BackendReads = %d, want 1", st.Stats().BackendReads)
	}
}

// TestCoalescedReadJoinsWrite checks that a read missing on a key that a
// concurrent write has reserved is served the written bytes once the write
// lands, without a backend fetch of its own.
func TestCoalescedReadJoinsWrite(t *testing.T) {
	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<20)
	gate := newGateBackend(mem)
	st, err := Open(gate, Options{CacheBytes: 64 * block.Size, SieveC: smallSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Occupy the key with an in-flight miss fetch.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, block.Size)
		if err := st.ReadAt(0, 0, buf, 0); err != nil {
			t.Error(err)
		}
	}()
	<-gate.entered

	// The writer must wait for the fetch to drain (reservation), then the
	// stacked reader is served. Writers never deadlock against fetches.
	data := bytes.Repeat([]byte{0x5C}, block.Size)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := st.WriteAt(0, 0, data, 0); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the writer park on the flight
	close(gate.release)
	wg.Wait()

	got := make([]byte, block.Size)
	if err := st.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("read after write did not observe the write")
	}
}

// TestInvalidateDuringFetchSuppressesInstall: an Invalidate racing an
// in-flight miss fetch must prevent the (now stale) fetched data from
// being installed into the cache.
func TestInvalidateDuringFetchSuppressesInstall(t *testing.T) {
	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<20)
	gate := newGateBackend(mem)
	// T1=1,T2=2: the 1st miss warms the sieve, the 2nd would admit — so
	// the racing read below would install if not suppressed.
	st, err := Open(gate, Options{CacheBytes: 64 * block.Size,
		SieveC: sieve.CConfig{IMCTSize: 1 << 12, T1: 1, T2: 2, Window: time.Hour, Subwindows: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	buf := make([]byte, block.Size)
	go func() { <-gate.entered; close(gate.release) }()
	if err := st.ReadAt(0, 0, buf, 0); err != nil { // 1st miss: sieve warms
		t.Fatal(err)
	}

	gate.release = make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := make([]byte, block.Size)
		if err := st.ReadAt(0, 0, b, 0); err != nil { // 2nd miss: would admit
			t.Error(err)
		}
	}()
	<-gate.entered
	if _, err := st.Invalidate(0, 0, 0, block.Size); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	wg.Wait()

	if st.Contains(0, 0, 0) {
		t.Error("stale fetch was installed despite racing Invalidate")
	}
}

// TestConcurrentStress hammers one store from many goroutines with
// overlapping reads, writes, invalidates, snapshots and stats. Each worker
// owns a disjoint key range and checks read-your-writes there; shared
// operations (Stats/Invalidate/Flush on worker 0's range) run concurrently.
// Primarily a -race and invariant check.
func TestConcurrentStress(t *testing.T) {
	for _, writeBack := range []bool{false, true} {
		t.Run(fmt.Sprintf("writeback=%v", writeBack), func(t *testing.T) {
			const (
				workers = 8
				ops     = 300
				span    = 64 // blocks per worker
			)
			mem := store.NewMem()
			mem.AddVolume(0, 0, workers*span*block.Size)
			st, err := Open(mem, Options{
				CacheBytes:   128 * block.Size,
				SieveC:       smallSieve(),
				WriteBack:    writeBack,
				TrackLatency: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			var wrote [workers * span]atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					base := uint64(w * span)
					buf := make([]byte, block.Size)
					pattern := func(blk uint64) []byte {
						return bytes.Repeat([]byte{byte(blk), byte(w + 1)}, block.Size/2)
					}
					for i := 0; i < ops; i++ {
						blk := base + uint64((i*7)%span)
						off := blk * block.Size
						switch i % 5 {
						case 0, 1:
							if err := st.WriteAt(0, 0, pattern(blk), off); err != nil {
								t.Error(err)
								return
							}
							wrote[blk].Store(true)
						case 2, 3:
							if err := st.ReadAt(0, 0, buf, off); err != nil {
								t.Error(err)
								return
							}
							if wrote[blk].Load() && !bytes.Equal(buf, pattern(blk)) {
								t.Errorf("worker %d: read-your-writes violated at block %d", w, blk)
								return
							}
						case 4:
							if w == 0 {
								// Shared-range chaos: invalidate and stats.
								if _, err := st.Invalidate(0, 0, off, block.Size); err != nil {
									t.Error(err)
									return
								}
							}
							_ = st.Stats()
						}
					}
				}(w)
			}
			wg.Wait()

			s := st.Stats()
			if s.CachedBlocks > s.CapacityBlocks {
				t.Errorf("occupancy %d exceeds capacity %d", s.CachedBlocks, s.CapacityBlocks)
			}
			if s.Hits() > s.Reads+s.Writes {
				t.Errorf("hits %d exceed accesses %d", s.Hits(), s.Reads+s.Writes)
			}
			if s.ReadOps == 0 || s.WriteOps == 0 {
				t.Error("no operations counted")
			}
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
			if st.Stats().DirtyBlocks != 0 {
				t.Error("dirty blocks survived Flush")
			}
		})
	}
}

// TestConcurrentHitRatioMatchesSequential replays the identical access
// sequence once sequentially and once with concurrent disjoint-range
// workers; per-range stat totals must agree (concurrency must not change
// admission behavior when there is no cross-range interaction).
func TestConcurrentHitRatioMatchesSequential(t *testing.T) {
	const (
		workers = 4
		span    = 128
		ops     = 1000
	)
	run := func(concurrent bool) Stats {
		mem := store.NewMem()
		mem.AddVolume(0, 0, workers*span*block.Size)
		// Per-worker-disjoint keys and a generous cache so eviction order
		// (which legitimately depends on interleaving) cannot differ.
		st, err := Open(mem, Options{CacheBytes: workers * span * block.Size, SieveC: smallSieve()})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			work := func(w int) {
				buf := make([]byte, block.Size)
				base := uint64(w * span)
				for i := 0; i < ops; i++ {
					blk := base + uint64((i*i+3*i)%span)
					if err := st.ReadAt(0, 0, buf, blk*block.Size); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if concurrent {
				wg.Add(1)
				go func(w int) { defer wg.Done(); work(w) }(w)
			} else {
				work(w)
			}
		}
		wg.Wait()
		return st.Stats()
	}
	seq, conc := run(false), run(true)
	if seq.ReadHits != conc.ReadHits+conc.CoalescedReads || seq.Reads != conc.Reads {
		t.Errorf("sequential hits=%d/%d, concurrent hits=%d(+%d coalesced)/%d",
			seq.ReadHits, seq.Reads, conc.ReadHits, conc.CoalescedReads, conc.Reads)
	}
}
