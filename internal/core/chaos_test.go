package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/store"
)

// The chaos harness drives the store straight over a faulty backend —
//
//	core.Store → chaosCounter → store.Faulty → store.Mem
//
// — with concurrent readers/writers, epoch rotations and spill faults.
// Every read is checked against every write acknowledged before it began:
// it may not return an older version, nor one never written. Then every
// fault clears and recovery is verified: no deadlock (the run completes),
// and no stale data (every block reads back its last written version, and
// the cache agrees with the backend byte for byte).

const (
	chaosBlocks  = 64
	chaosWorkers = 8
)

// chaosPattern fills a block with 8-byte cells of (index, version) so a
// read can verify both placement and freshness, and detect torn blocks.
func chaosPattern(idx int, version uint32) []byte {
	buf := make([]byte, block.Size)
	for c := 0; c < block.Size/8; c++ {
		binary.LittleEndian.PutUint32(buf[c*8:], uint32(idx))
		binary.LittleEndian.PutUint32(buf[c*8+4:], version)
	}
	return buf
}

// decodeChaos verifies buf is a uniform (idx, version) pattern and returns
// the version.
func decodeChaos(idx int, buf []byte) (uint32, error) {
	wantIdx := binary.LittleEndian.Uint32(buf[0:])
	version := binary.LittleEndian.Uint32(buf[4:])
	if wantIdx != uint32(idx) {
		return 0, errors.New("block content belongs to a different index")
	}
	for c := 1; c < block.Size/8; c++ {
		if binary.LittleEndian.Uint32(buf[c*8:]) != wantIdx ||
			binary.LittleEndian.Uint32(buf[c*8+4:]) != version {
			return 0, errors.New("torn block: cells disagree")
		}
	}
	return version, nil
}

// chaosBlock is one block's ground truth. mu serializes writers so backend
// versions stay monotonic; floor is the last version whose write was
// acknowledged, attempted the last one any write carried.
type chaosBlock struct {
	mu        sync.Mutex
	attempted atomic.Uint32
	floor     atomic.Uint32
}

// chaosCounter sits between the store and store.Faulty and counts what the
// store met there: calls that failed, and calls held at least hang.
type chaosCounter struct {
	store.Backend
	hang        time.Duration
	errs, hangs atomic.Int64
}

func (c *chaosCounter) count(start time.Time, err error) error {
	if err != nil {
		c.errs.Add(1)
	}
	if time.Since(start) >= c.hang {
		c.hangs.Add(1)
	}
	return err
}

func (c *chaosCounter) ReadAt(server, volume int, p []byte, off uint64) error {
	return c.count(time.Now(), c.Backend.ReadAt(server, volume, p, off))
}

func (c *chaosCounter) WriteAt(server, volume int, p []byte, off uint64) error {
	return c.count(time.Now(), c.Backend.WriteAt(server, volume, p, off))
}

func TestChaosVariantC(t *testing.T) { runChaos(t, VariantC) }
func TestChaosVariantD(t *testing.T) { runChaos(t, VariantD) }

func runChaos(t *testing.T, variant Variant) {
	// A wedged run should dump stacks, not sit out the suite timeout.
	watchdog := time.AfterFunc(2*time.Minute, func() {
		panic("chaos: run did not complete — deadlock suspected")
	})
	defer watchdog.Stop()

	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<20)
	faulty := store.NewFaulty(mem)
	faulty.Seed(7)
	const hangFor = 50 * time.Millisecond
	counter := &chaosCounter{Backend: faulty, hang: hangFor}

	opts := Options{
		CacheBytes: 32 * block.Size, // smaller than the working set: constant eviction
		Shards:     4,
		SieveC:     quickSieve(),
	}
	var chaosOn atomic.Bool
	if variant == VariantD {
		opts.Variant = VariantD
		opts.Epoch = time.Hour // rotations are driven manually below
		opts.DThreshold = 2
		opts.SpillDir = t.TempDir()
		// Spill faults in bursts of 5 — enough consecutive errors to
		// disable access logging; the rotator's manual rotations re-enable
		// it.
		var spillCtr atomic.Uint64
		testSpillFault = func() error {
			if chaosOn.Load() && spillCtr.Add(1)%16 < 5 {
				return errors.New("chaos: spill device fault")
			}
			return nil
		}
		defer func() { testSpillFault = nil }()
	}
	s, err := Open(counter, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Seed every block with version 0 before any fault is armed.
	blocks := make([]chaosBlock, chaosBlocks)
	for i := 0; i < chaosBlocks; i++ {
		if err := s.WriteAt(0, 0, chaosPattern(i, 0), uint64(i)*block.Size); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Rotator: frequent manual epoch boundaries (no-op for VariantC).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				_ = s.RotateEpoch() // failures are legitimate under faults
			}
		}
	}()

	worker := func(seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 2*block.Size)
		for {
			select {
			case <-stop:
				return
			default:
			}
			b := rng.Intn(chaosBlocks)
			if rng.Intn(2) == 0 {
				st := &blocks[b]
				st.mu.Lock()
				v := st.attempted.Add(1)
				if s.WriteAt(0, 0, chaosPattern(b, v), uint64(b)*block.Size) == nil {
					st.floor.Store(v)
				}
				st.mu.Unlock()
				continue
			}
			n := 1
			if b < chaosBlocks-1 && rng.Intn(4) == 0 {
				n = 2
			}
			floors := make([]uint32, n)
			for k := 0; k < n; k++ {
				floors[k] = blocks[b+k].floor.Load()
			}
			if rerr := s.ReadAt(0, 0, buf[:n*block.Size], uint64(b)*block.Size); rerr != nil {
				continue // injected failure; nothing to verify
			}
			for k := 0; k < n; k++ {
				v, derr := decodeChaos(b+k, buf[k*block.Size:(k+1)*block.Size])
				if derr != nil {
					t.Errorf("block %d: %v", b+k, derr)
					continue
				}
				if hi := blocks[b+k].attempted.Load(); v > hi {
					t.Errorf("block %d: read version %d, but only %d were ever written", b+k, v, hi)
				}
				if v < floors[k] {
					t.Errorf("block %d: stale read: version %d < confirmed floor %d", b+k, v, floors[k])
				}
			}
		}
	}
	for w := 0; w < chaosWorkers; w++ {
		wg.Add(1)
		go worker(int64(100 + w))
	}

	// Phase 1: chaos. Failures, hangs that hold their caller and whoever
	// joined its flight, latency spikes, spill bursts.
	chaosOn.Store(true)
	faulty.SetConfig(store.FaultConfig{
		ReadFailProb:  0.15,
		WriteFailProb: 0.15,
		HangProb:      0.02,
		HangFor:       hangFor,
		LatencyProb:   0.05,
		Latency:       2 * time.Millisecond,
	})
	time.Sleep(400 * time.Millisecond)

	// Phase 2: the faults clear; traffic continues while the store heals.
	chaosOn.Store(false)
	faulty.ClearFaults()
	time.Sleep(150 * time.Millisecond)

	// Phase 3: stop the load, then verify. Every backend call has returned:
	// each returns before its caller does.
	close(stop)
	wg.Wait()

	// A fresh write per block must succeed, and becomes the expected final
	// content.
	for i := 0; i < chaosBlocks; i++ {
		v := blocks[i].attempted.Add(1)
		if err := s.WriteAt(0, 0, chaosPattern(i, v), uint64(i)*block.Size); err != nil {
			t.Fatalf("block %d: post-chaos write: %v", i, err)
		}
		blocks[i].floor.Store(v)
	}

	// No stale data: every block serves its final version through the
	// store, and the store's view agrees with the backend byte for byte.
	got := make([]byte, block.Size)
	memGot := make([]byte, block.Size)
	for i := 0; i < chaosBlocks; i++ {
		off := uint64(i) * block.Size
		if err := s.ReadAt(0, 0, got, off); err != nil {
			t.Fatalf("block %d: post-chaos read: %v", i, err)
		}
		v, derr := decodeChaos(i, got)
		if derr != nil {
			t.Fatalf("block %d: post-chaos content: %v", i, derr)
		}
		if want := blocks[i].floor.Load(); v != want {
			t.Errorf("block %d: final version %d, want %d", i, v, want)
		}
		if err := mem.ReadAt(0, 0, memGot, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, memGot) {
			t.Errorf("block %d: cache and backend disagree after recovery", i)
		}
	}

	// The chaos must actually have exercised the fault paths.
	errs, hangs := counter.errs.Load(), counter.hangs.Load()
	st := s.Stats()
	if errs == 0 {
		t.Error("no backend errors observed — fault injection did not engage")
	}
	if hangs == 0 {
		t.Errorf("no backend call held %v — hangs did not engage", hangFor)
	}
	t.Logf("chaos %v: backend errors=%d hangs=%d", variant, errs, hangs)
	t.Logf("chaos %v: spillDisables=%d epochs=%d rotateFailures=%d",
		variant, st.SpillDisables, st.Epochs, st.RotateFailures)
}
