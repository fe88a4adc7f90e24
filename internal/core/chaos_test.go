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
	"repro/internal/resilience"
	"repro/internal/store"
)

// The chaos harness drives the full fault-tolerant stack —
//
//	core.Store → resilience.Wrap (deadline+retry+breaker) → store.Faulty → store.Mem
//
// — with concurrent readers/writers, epoch rotations and spill faults, then
// clears every fault and verifies clean recovery: no deadlock (the run
// completes), and no stale data (every block reads back its last written
// version, and the cache agrees with the backend byte for byte).

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
// versions stay monotonic; tainted counts writes whose outcome is unknown
// (an error, or a duration long enough to hide a timed-out attempt whose
// abandoned goroutine may still apply late) — while any exist, only the
// upper-bound freshness check holds.
type chaosBlock struct {
	mu        sync.Mutex
	attempted atomic.Uint32
	floor     atomic.Uint32
	tainted   atomic.Uint32
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

	const attemptTimeout = 25 * time.Millisecond
	res := resilience.Wrap(faulty, resilience.Config{
		Timeout: attemptTimeout,
		Retry:   resilience.RetryPolicy{Max: 2, Base: time.Millisecond, Cap: 5 * time.Millisecond},
		Breaker: resilience.BreakerConfig{Threshold: 5, OpenFor: 20 * time.Millisecond},
	})

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
	s, err := Open(res, opts)
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
				start := time.Now()
				werr := s.WriteAt(0, 0, chaosPattern(b, v), uint64(b)*block.Size)
				if werr == nil && time.Since(start) < attemptTimeout {
					st.floor.Store(v)
				} else {
					// Failed, or slow enough that a timed-out attempt may
					// have been abandoned: its late write can reapply an old
					// version any time until the backend quiesces.
					st.tainted.Add(1)
				}
				st.mu.Unlock()
				continue
			}
			n := 1
			if b < chaosBlocks-1 && rng.Intn(4) == 0 {
				n = 2
			}
			floors := make([]uint32, n)
			taints := make([]uint32, n)
			for k := 0; k < n; k++ {
				floors[k] = blocks[b+k].floor.Load()
				taints[k] = blocks[b+k].tainted.Load()
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
				if taints[k] == 0 && blocks[b+k].tainted.Load() == 0 && v < floors[k] {
					t.Errorf("block %d: stale read: version %d < confirmed floor %d", b+k, v, floors[k])
				}
			}
		}
	}
	for w := 0; w < chaosWorkers; w++ {
		wg.Add(1)
		go worker(int64(100 + w))
	}

	// Phase 1: chaos. Transient blips, hard failures, hangs outliving the
	// deadline, latency spikes, spill bursts.
	chaosOn.Store(true)
	faulty.SetConfig(store.FaultConfig{
		ReadFailProb:  0.15,
		WriteFailProb: 0.15,
		Transient:     true,
		HangProb:      0.02,
		HangFor:       50 * time.Millisecond,
		LatencyProb:   0.05,
		Latency:       2 * time.Millisecond,
	})
	time.Sleep(400 * time.Millisecond)

	// Phase 2: the faults clear; traffic continues while the stack heals.
	chaosOn.Store(false)
	faulty.ClearFaults()
	time.Sleep(150 * time.Millisecond)

	// Phase 3: stop the load, drain every straggler (abandoned timed-out
	// attempts included), then verify.
	close(stop)
	wg.Wait()
	faulty.ClearFaults()
	faulty.Quiesce()

	// A fresh write per block must get through — ride out a still-open
	// breaker — and becomes the expected final content.
	for i := 0; i < chaosBlocks; i++ {
		v := blocks[i].attempted.Add(1)
		data := chaosPattern(i, v)
		deadline := time.Now().Add(10 * time.Second)
		for {
			if err := s.WriteAt(0, 0, data, uint64(i)*block.Size); err == nil {
				break
			} else if time.Now().After(deadline) {
				t.Fatalf("block %d: post-chaos write never succeeded: %v", i, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		blocks[i].floor.Store(v)
	}
	faulty.Quiesce()

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
	snap := res.Stats()
	st := s.Stats()
	if snap.TransientErrors == 0 {
		t.Error("no transient errors observed — fault injection did not engage")
	}
	if snap.Timeouts == 0 {
		t.Error("no deadline timeouts observed — hangs did not engage")
	}
	t.Logf("chaos %v: resilience=%+v", variant, snap)
	t.Logf("chaos %v: spillDisables=%d epochs=%d rotateFailures=%d",
		variant, st.SpillDisables, st.Epochs, st.RotateFailures)
}
