package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/sieved"
	"repro/internal/store"
)

// TestShardsValidation checks Options.Shards defaulting and rejection.
func TestShardsValidation(t *testing.T) {
	mem := store.NewMem()
	st, err := Open(mem, Options{CacheBytes: 64 * block.Size})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Shards(); got != 1 {
		t.Errorf("default Shards = %d, want 1", got)
	}
	st.Close()

	for _, bad := range []int{-1, 3, 6, 12} {
		if _, err := Open(mem, Options{CacheBytes: 64 * block.Size, Shards: bad}); err == nil {
			t.Errorf("Shards=%d: want power-of-two error", bad)
		}
	}
	// More shards than cache blocks: a shard would have zero capacity.
	if _, err := Open(mem, Options{CacheBytes: 2 * block.Size, Shards: 4}); err == nil {
		t.Error("Shards=4 over a 2-block cache: want capacity error")
	}

	st8, err := Open(mem, Options{CacheBytes: 64 * block.Size, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st8.Close()
	if got := st8.Shards(); got != 8 {
		t.Errorf("Shards() = %d, want 8", got)
	}
	if got := st8.Stats().CapacityBlocks; got != 64 {
		t.Errorf("CapacityBlocks = %d, want 64 (partitioned, not truncated)", got)
	}
}

// TestDefaultShards pins the contention rule: the smallest power of two ≥
// 4 × GOMAXPROCS, capped at 256. It sets GOMAXPROCS, so it does not run in
// parallel.
func TestDefaultShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ procs, want int }{{1, 4}, {2, 8}, {3, 16}, {64, 256}, {100, 256}} {
		runtime.GOMAXPROCS(c.procs)
		if got := DefaultShards(); got != c.want {
			t.Errorf("GOMAXPROCS %d: DefaultShards() = %d, want %d", c.procs, got, c.want)
		}
	}
}

// TestSlabWasteBounded checks the slab rule at the benchmark's geometry: an
// 8 MiB store split 8 ways and half full allocates frames for its resident
// blocks plus at most capacity/32 more, so the rounding up to whole slabs
// does not grow with the shard count.
func TestSlabWasteBounded(t *testing.T) {
	const capacity, pages = 8 << 20 / block.Size, 8 << 20 / block.PageSize
	mem := store.NewMem()
	mem.AddVolume(0, 0, capacity*block.Size)
	st, err := Open(mem, Options{CacheBytes: capacity * block.Size, Shards: 8, SieveC: smallSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Half the volume's pages, scattered (an odd multiplier permutes them),
	// so the shards fill unevenly and their last slabs partly.
	p := make([]byte, block.PageSize)
	for i := uint64(0); i < pages/2; i++ {
		if err := st.WriteAt(0, 0, p, i*0x9e3779b1%pages*block.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	resident := st.Stats().CachedBlocks
	if resident != capacity/2 {
		t.Fatalf("CachedBlocks = %d, want %d", resident, capacity/2)
	}
	frames := 0
	for _, sh := range st.shards {
		frames += len(sh.slabs) << sh.slabShift
	}
	if limit := int(resident) + capacity/32; frames > limit {
		t.Errorf("%d frames allocated for %d resident blocks, want ≤ %d", frames, resident, limit)
	}
}

// BenchmarkReadHitParallel runs 4 KiB hits from every P over a warmed store
// at each shard count, with latency tracking off and on. With -mutexprofile
// it shows what a hit waits on its shard's lock as the lock is split finer.
func BenchmarkReadHitParallel(b *testing.B) {
	const capacity, pages = 8 << 20 / block.Size, 1 << 9 // pages: half the cache
	for i, shards := range []int{1, 2, 8, DefaultShards()} {
		name := fmt.Sprintf("shards=%d", shards)
		if i == 3 {
			name = fmt.Sprintf("default=%d", shards)
		}
		for _, latency := range []string{"off", "on"} {
			b.Run(name+"/latency="+latency, func(b *testing.B) {
				readHitParallel(b, capacity, pages, Options{Shards: shards, TrackLatency: latency == "on"})
			})
		}
	}
}

// readHitParallel is one BenchmarkReadHitParallel configuration: opts over
// a cache of capacity blocks that holds pages pages, every read a hit.
func readHitParallel(b *testing.B, capacity, pages uint64, opts Options) {
	mem := store.NewMem()
	mem.AddVolume(0, 0, pages*block.PageSize)
	opts.CacheBytes, opts.SieveC = int64(capacity*block.Size), smallSieve()
	st, err := Open(mem, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	p := make([]byte, block.PageSize)
	for pg := uint64(0); pg < pages; pg++ {
		if err := st.WriteAt(0, 0, p, pg*block.PageSize); err != nil {
			b.Fatal(err)
		}
	}
	var seed atomic.Uint64
	b.SetBytes(block.PageSize)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := seed.Add(0x9e3779b97f4a7c15) // per-goroutine xorshift state
		buf := make([]byte, block.PageSize)
		for pb.Next() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if err := st.ReadAt(0, 0, buf, x%pages*block.PageSize); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if s := st.Stats(); s.ReadHits != s.Reads {
		b.Errorf("%d of %d reads hit, want all", s.ReadHits, s.Reads)
	}
}

// shardTraceOp is one deterministic trace step for the equivalence test.
type shardTraceOp struct {
	write bool
	blk   uint64
	n     int
}

// shardTrace builds a deterministic mixed read/write trace with skewed
// reuse over span blocks (an LCG — no real randomness, so every run and
// every shard count sees the identical sequence).
func shardTrace(ops, span int) []shardTraceOp {
	out := make([]shardTraceOp, ops)
	x := uint64(88172645463325252)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		blk := (x >> 8) % uint64(span)
		if x%4 != 0 { // 3/4 of ops hit a hot eighth of the span
			blk %= uint64(span / 8)
		}
		n := 1 + int(x>>62) // 1–4 blocks
		if int(blk)+n > span {
			n = span - int(blk)
		}
		out[i] = shardTraceOp{write: x%8 == 0, blk: blk, n: n}
	}
	return out
}

// TestShardEquivalence replays the same serial trace at Shards ∈ {1,2,8}
// under both the LRU and SIEVE replacement engines and checks (a) every
// combination returns byte-correct data, (b) access counters are
// identical, and (c) hit ratios stay within 1% of that policy's Shards=1
// figure — shard-local eviction is the only allowed divergence. The
// smallest shard holds 64 blocks, eight pages: a shard is fully associative
// over pages, and one of a page or two (the 8-block shards this test ran
// before placement went by page) is a direct-mapped page cache, which no
// configuration deploys and no hit-ratio bar describes.
// (Shards=1 bit-identity with the unsharded seed is covered separately by
// the internal/replay simulator cross-validation.)
func TestShardEquivalence(t *testing.T) {
	const span = 4096
	trace := shardTrace(48000, span)
	content := func(blk uint64) byte { return byte(blk*7 + 13) }

	run := func(shards int, policy string) Stats {
		mem := store.NewMem()
		mem.AddVolume(0, 0, span*block.Size)
		init := make([]byte, span*block.Size)
		for b := 0; b < span; b++ {
			for i := 0; i < block.Size; i++ {
				init[b*block.Size+i] = content(uint64(b))
			}
		}
		if err := mem.WriteAt(0, 0, init, 0); err != nil {
			t.Fatal(err)
		}
		// Cache an eighth of the span so eviction actually happens.
		st, err := Open(mem, Options{
			CacheBytes: span / 8 * block.Size,
			Shards:     shards,
			Policy:     policy,
			SieveC:     smallSieve(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		buf := make([]byte, 4*block.Size)
		for _, op := range trace {
			p := buf[:op.n*block.Size]
			if op.write {
				for b := 0; b < op.n; b++ {
					for i := 0; i < block.Size; i++ {
						p[b*block.Size+i] = content(op.blk + uint64(b))
					}
				}
				if err := st.WriteAt(0, 0, p, op.blk*block.Size); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := st.ReadAt(0, 0, p, op.blk*block.Size); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < op.n; b++ {
				want := content(op.blk + uint64(b))
				if p[b*block.Size] != want || p[(b+1)*block.Size-1] != want {
					t.Fatalf("shards=%d policy=%s: block %d read %x..%x, want %x",
						shards, policy, op.blk+uint64(b), p[b*block.Size], p[(b+1)*block.Size-1], want)
				}
			}
		}
		return st.Stats()
	}

	// LRU's shard-local eviction must track the global figure to 1%.
	// SIEVE's hand approximates recency more coarsely in a small shard, so
	// its bar on this uniform-within-the-hot-set trace is looser — on its
	// Zipf workload the golden suite pins the same 64-block shards to
	// within 0.01 of SIEVE's own Shards=1 figure.
	tolerance := map[string]float64{"lru": 0.01, "sieve": 0.05}
	for _, policy := range []string{"lru", "sieve"} {
		t.Run(policy, func(t *testing.T) {
			base := run(1, policy)
			for _, shards := range []int{2, 8} {
				got := run(shards, policy)
				if got.Reads != base.Reads || got.Writes != base.Writes {
					t.Errorf("shards=%d: accesses %d/%d, want %d/%d",
						shards, got.Reads, got.Writes, base.Reads, base.Writes)
				}
				if diff := math.Abs(got.HitRatio() - base.HitRatio()); diff > tolerance[policy] {
					t.Errorf("shards=%d: hit ratio %.4f, want within %.0f%% of %.4f",
						shards, got.HitRatio(), 100*tolerance[policy], base.HitRatio())
				}
				if got.CachedBlocks > got.CapacityBlocks {
					t.Errorf("shards=%d: residency %d exceeds capacity %d",
						shards, got.CachedBlocks, got.CapacityBlocks)
				}
			}
		})
	}
}

// TestHitsProceedWhileLoggerStalled is the regression test for the
// logAccess-under-lock bug: SieveStore-D access logging performs buffered
// file I/O, and the old code did it while holding the store mutex — a
// single slow log write (e.g. a 64 KiB bufio flush hitting a congested
// disk) stalled every concurrent hit. Logging now happens before any
// shard lock is taken, so a caller stuck in the logger must not block
// hits.
func TestHitsProceedWhileLoggerStalled(t *testing.T) {
	mem := store.NewMem()
	mem.AddVolume(0, 0, 256*block.Size)
	clk := newFakeClock()
	st := openD(t, clk, mem, 1, "")

	// Install block 0: log one access, then cross an epoch boundary so the
	// rotation batch-allocates it.
	buf := make([]byte, block.Size)
	if err := st.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour + time.Minute)
	if err := st.ReadAt(0, 0, buf, 64*block.Size); err != nil {
		t.Fatal(err)
	}
	if !st.Contains(0, 0, 0) {
		t.Fatal("block 0 not cached after rotation")
	}

	// Stall exactly one logAccess call (the first to arrive).
	stalled := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	testLogHook = func() {
		first := false
		once.Do(func() { first = true })
		if first {
			close(stalled)
			<-release
		}
	}
	var wg sync.WaitGroup
	defer func() {
		close(release)
		wg.Wait()
		testLogHook = nil
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		p := make([]byte, block.Size)
		if err := st.ReadAt(0, 0, p, 128*block.Size); err != nil {
			t.Error(err)
		}
	}()
	<-stalled // the reader above is now stuck inside the logger

	hits := make(chan error, 1)
	go func() {
		p := make([]byte, block.Size)
		for i := 0; i < 50; i++ {
			if err := st.ReadAt(0, 0, p, 0); err != nil {
				hits <- err
				return
			}
		}
		hits <- nil
	}()
	select {
	case err := <-hits:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cache hits blocked behind a stalled access-log write")
	}
	before := st.Stats().ReadHits
	if before < 50 {
		t.Errorf("ReadHits = %d, want ≥ 50", before)
	}
}

// TestPooledWaiterCoalescing drives several readers onto one in-flight
// fetch and checks each gets correct data from the pooled, refcounted
// buffer — and that the buffer's return to the pool does not corrupt a
// later fetch's result.
func TestPooledWaiterCoalescing(t *testing.T) {
	mem := store.NewMem()
	mem.AddVolume(0, 0, 64*block.Size)
	pattern := make([]byte, block.Size)
	for i := range pattern {
		pattern[i] = 0xA5
	}
	if err := mem.WriteAt(0, 0, pattern, 7*block.Size); err != nil {
		t.Fatal(err)
	}
	gate := newGateBackend(mem)
	st, err := Open(gate, Options{CacheBytes: 16 * block.Size, Shards: 2, SieveC: smallSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const readers = 5
	var wg sync.WaitGroup
	bufs := make([][]byte, readers)
	errs := make([]error, readers)
	for r := 0; r < readers; r++ {
		bufs[r] = make([]byte, block.Size)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = st.ReadAt(0, 0, bufs[r], 7*block.Size)
		}(r)
	}
	<-gate.entered // exactly one fetch reaches the backend
	select {
	case <-gate.entered:
		t.Error("second backend fetch for a coalesced key")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate.release)
	wg.Wait()
	for r := 0; r < readers; r++ {
		if errs[r] != nil {
			t.Fatalf("reader %d: %v", r, errs[r])
		}
		if !bytes.Equal(bufs[r], pattern) {
			t.Fatalf("reader %d got corrupted data", r)
		}
	}
	if got := st.Stats().CoalescedReads; got != readers-1 {
		t.Errorf("CoalescedReads = %d, want %d", got, readers-1)
	}
	// The pooled buffer is back in circulation now; a fresh miss must not
	// see its remnants.
	p := make([]byte, block.Size)
	if err := st.ReadAt(0, 0, p, 9*block.Size); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, make([]byte, block.Size)) {
		t.Error("fresh miss returned non-zero data after pool reuse")
	}
}

// TestShardStressTransitions races readers and writers across 8 shards
// against rotation, flush, snapshot save/load, and invalidation — the
// cross-shard staged protocols — under both the LRU and SIEVE engines
// (SIEVE adds the hand's Remove/Swap repair paths to the mix). Every
// block always holds the same key-derived pattern, so any read (from
// frames old or new, snapshot or backend) can be verified exactly; the
// race detector checks the locking.
func TestShardStressTransitions(t *testing.T) {
	for _, policy := range []string{"lru", "sieve"} {
		t.Run(policy, func(t *testing.T) { stressTransitions(t, policy) })
	}
}

func stressTransitions(t *testing.T, policy string) {
	const (
		span    = 512
		workers = 4
		ops     = 400
	)
	mem := store.NewMem()
	mem.AddVolume(0, 0, span*block.Size)
	st, err := Open(mem, Options{
		CacheBytes: span / 4 * block.Size,
		Shards:     8,
		Policy:     policy,
		Variant:    VariantD,
		DThreshold: 1,
		Epoch:      time.Hour,
		WriteBack:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	pattern := func(blk uint64, p []byte) {
		for i := range p {
			p[i] = byte(blk*31 + 7)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 2*block.Size)
			x := uint64(w)*2654435761 + 1
			for i := 0; i < ops; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				blk := x % (span - 1)
				switch x % 3 {
				case 0:
					p := buf[:block.Size]
					pattern(blk, p)
					if err := st.WriteAt(0, 0, p, blk*block.Size); err != nil {
						t.Error(err)
						return
					}
				case 1:
					n := 1 + int(x>>63)
					p := buf[:n*block.Size]
					if err := st.ReadAt(0, 0, p, blk*block.Size); err != nil {
						t.Error(err)
						return
					}
					for b := 0; b < n; b++ {
						want := byte((blk+uint64(b))*31 + 7)
						got := p[b*block.Size]
						if got != 0 && got != want {
							t.Errorf("block %d: read %x, want %x or 0", blk+uint64(b), got, want)
							return
						}
					}
				default:
					if _, err := st.Invalidate(0, 0, blk*block.Size, block.Size); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}

	var transWg sync.WaitGroup
	transWg.Add(1)
	go func() {
		defer transWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				if err := st.RotateEpoch(); err != nil {
					t.Error(err)
					return
				}
			case 1:
				if err := st.Flush(); err != nil {
					t.Error(err)
					return
				}
			case 2:
				var snap bytes.Buffer
				if err := st.SaveSnapshot(&snap); err != nil {
					t.Error(err)
					return
				}
				if err := st.LoadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
					t.Error(err)
					return
				}
			default:
				_ = st.Stats()
			}
		}
	}()

	wg.Wait()
	close(stop)
	transWg.Wait()

	// Everything must still drain cleanly.
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	final := st.Stats()
	if final.CachedBlocks > final.CapacityBlocks {
		t.Errorf("residency %d exceeds capacity %d", final.CachedBlocks, final.CapacityBlocks)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the backend holds every flushed pattern; spot-check that
	// no block carries a torn or foreign pattern.
	p := make([]byte, block.Size)
	for blk := uint64(0); blk < span; blk += 37 {
		if err := mem.ReadAt(0, 0, p, blk*block.Size); err != nil {
			t.Fatal(err)
		}
		want := byte(blk*31 + 7)
		for i, b := range p {
			if b != 0 && b != want {
				t.Fatalf("backend block %d byte %d = %x, want %x or 0", blk, i, b, want)
			}
		}
	}
}

// TestSelectOverflowSkewedShards is the regression test for the silent
// rotation drop: the per-shard split of an epoch selection caps each
// shard at its own capacity, so a skewed key→shard distribution loses
// hot blocks even when the cache as a whole has room. Those drops (plus
// any tag-store Swap truncation) must surface in Stats.SelectOverflow.
func TestSelectOverflowSkewedShards(t *testing.T) {
	const span = 4096
	mem := store.NewMem()
	mem.AddVolume(0, 0, span*block.Size)
	clk := newFakeClock()
	st, err := Open(mem, Options{
		CacheBytes: 64 * block.Size, // 8 shards × 8 blocks
		Shards:     8,
		Variant:    VariantD,
		DThreshold: 1,
		Epoch:      time.Hour,
		SpillDir:   t.TempDir(),
		Now:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Brute-force 20 block numbers that all hash to shard 0: more than
	// twice its 8-block capacity, while the other 7 shards stay empty.
	var skewed []uint64
	for blk := uint64(0); blk < span && len(skewed) < 20; blk++ {
		if st.shardIndex(block.MakeKey(0, 0, blk)) == 0 {
			skewed = append(skewed, blk)
		}
	}
	if len(skewed) < 20 {
		t.Fatalf("only %d keys map to shard 0 in a %d-block span", len(skewed), span)
	}
	p := make([]byte, block.Size)
	for _, blk := range skewed {
		if err := st.ReadAt(0, 0, p, blk*block.Size); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.RotateEpoch(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	// All 20 cross DThreshold=1, shard 0 installs at most 8: 12 hot
	// blocks vanished from the selection and must be accounted for.
	if want := int64(len(skewed) - 8); s.SelectOverflow != want {
		t.Errorf("SelectOverflow = %d, want %d", s.SelectOverflow, want)
	}
	if s.CachedBlocks > 8 {
		t.Errorf("CachedBlocks = %d, want ≤ 8 (everything hashes to one shard)", s.CachedBlocks)
	}
	// An even selection (fresh epoch, keys spread across shards) adds no
	// further overflow.
	before := s.SelectOverflow
	for blk := uint64(0); blk < 32; blk++ {
		if err := st.ReadAt(0, 0, p, blk*block.Size); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(2 * time.Hour)
	if err := st.RotateEpoch(); err != nil {
		t.Fatal(err)
	}
	s = st.Stats()
	if s.SelectOverflow != before {
		t.Errorf("even selection changed SelectOverflow: %d → %d", before, s.SelectOverflow)
	}
}

// TestSnapshotRoundTripAcrossShardCounts saves from a sharded store and
// loads into stores with different shard counts, checking the restored
// contents are identical (snapshots are portable across Shards).
func TestSnapshotRoundTripAcrossShardCounts(t *testing.T) {
	mem := store.NewMem()
	mem.AddVolume(0, 0, 256*block.Size)
	src, err := Open(mem, Options{CacheBytes: 64 * block.Size, Shards: 4, SieveC: smallSieve()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	p := make([]byte, block.Size)
	for blk := uint64(0); blk < 32; blk++ {
		for i := range p {
			p[i] = byte(blk + 1)
		}
		if err := src.WriteAt(0, 0, p, blk*block.Size); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := src.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dst, err := Open(mem, Options{CacheBytes: 64 * block.Size, Shards: shards, SieveC: smallSieve()})
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			if err := dst.LoadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			for blk := uint64(0); blk < 32; blk++ {
				if !dst.Contains(0, 0, blk*block.Size) {
					t.Fatalf("block %d not restored", blk)
				}
			}
			got := dst.Stats()
			if got.CachedBlocks != 32 {
				t.Errorf("CachedBlocks = %d, want 32", got.CachedBlocks)
			}
			if err := dst.ReadAt(0, 0, p, 5*block.Size); err != nil {
				t.Fatal(err)
			}
			if p[0] != 6 {
				t.Errorf("restored block 5 = %x, want 6", p[0])
			}
		})
	}
}

// TestPartitionFeedsOneShard pins the invariant rotation and logging lean
// on: the access log's partitions and the store's shards place a key by the
// same page hash, so partition p holds only keys of shard p mod Shards —
// read back here from the spill files themselves.
func TestPartitionFeedsOneShard(t *testing.T) {
	for _, shards := range []int{2, 32} {
		mem := store.NewMem()
		mem.AddVolume(0, 0, 1<<20)
		mem.AddVolume(3, 1, 1<<20)
		dir := t.TempDir()
		st, err := Open(mem, Options{CacheBytes: 64 * block.Size, Shards: shards, Variant: VariantD, SpillDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 20*block.Size)
		for i := uint64(0); i < 200; i++ {
			n := 1 + i%20 // from inside a page to across three, at any block offset
			if err := st.ReadAt(int(i%2)*3, int(i%2), buf[:n*block.Size], i*7*block.Size); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "part-*.log"))
		if err != nil || len(files) != max(shards, sieved.DefaultPartitions) {
			t.Fatalf("Shards %d: %d partition files (%v)", shards, len(files), err)
		}
		tuples := 0
		for p, path := range files { // Glob sorts, and the names are zero-padded
			log, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for len(log) > 0 {
				key, n := binary.Uvarint(log)
				_, m := binary.Uvarint(log[n:])
				if n <= 0 || m <= 0 {
					t.Fatalf("%s: malformed tuple", path)
				}
				log = log[n+m:]
				tuples++
				if si := st.shardIndex(block.Key(key)); si != p%shards {
					t.Fatalf("Shards %d: partition %d holds %v, a key of shard %d", shards, p, block.Key(key), si)
				}
			}
		}
		if tuples < 2000 {
			t.Errorf("Shards %d: only %d tuples logged", shards, tuples)
		}
	}
}
