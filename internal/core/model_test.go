package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/sieve"
	"repro/internal/store"
)

// TestStoreMatchesReferenceModel drives the Store with a long random
// operation sequence and checks, after every single operation, that reads
// return exactly what a trivial reference model (a flat byte array) says
// they must — regardless of what the cache, the sieve, evictions, epoch
// rotations, or invalidations did in between. This is the library's
// strongest correctness property: caching must never change observable
// contents.
func TestStoreMatchesReferenceModel(t *testing.T) {
	for _, variant := range []Variant{VariantC, VariantD} {
		t.Run(variant.String(), func(t *testing.T) {
			for _, shards := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("Shards%d", shards), func(t *testing.T) { storeMatchesModel(t, variant, shards) })
			}
		})
	}
}

func storeMatchesModel(t *testing.T, variant Variant, shards int) {
	const (
		volBytes = 1 << 18 // 256 KiB playground
		ops      = 4000
	)
	rng := rand.New(rand.NewSource(99))
	clk := newFakeClock()
	be := store.NewMem()
	be.AddVolume(0, 0, volBytes)
	be.AddVolume(1, 1, volBytes)
	opts := Options{
		CacheBytes: 32 * block.Size, // tiny: force constant eviction
		Shards:     shards,
		Variant:    variant,
		Now:        clk.Now,
	}
	if variant == VariantC {
		opts.SieveC = sieve.CConfig{IMCTSize: 256, T1: 2, T2: 1, Window: time.Hour, Subwindows: 4}
	} else {
		opts.DThreshold = 2
		opts.Epoch = time.Hour
		opts.SpillDir = t.TempDir()
	}
	st, err := Open(be, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Reference contents per volume.
	model := map[[2]int][]byte{
		{0, 0}: make([]byte, volBytes),
		{1, 1}: make([]byte, volBytes),
	}
	vols := [][2]int{{0, 0}, {1, 1}}

	for i := 0; i < ops; i++ {
		v := vols[rng.Intn(len(vols))]
		// Mostly sub-page requests at any block offset (so they straddle
		// pages, hence shards, as often as not); one in sixteen is longer
		// than 64 KiB and walks a run of pages in every shard.
		nBlocks := 1 + rng.Intn(8)
		if rng.Intn(16) == 0 {
			nBlocks = 129 + rng.Intn(32)
		}
		maxOff := volBytes/block.Size - nBlocks
		off := uint64(rng.Intn(maxOff+1)) * block.Size
		n := nBlocks * block.Size
		clk.Advance(time.Duration(rng.Intn(1000)) * time.Millisecond)
		switch rng.Intn(10) {
		case 0, 1, 2: // write
			data := make([]byte, n)
			rng.Read(data)
			if err := st.WriteAt(v[0], v[1], data, off); err != nil {
				t.Fatalf("op %d write: %v", i, err)
			}
			copy(model[v][off:off+uint64(n)], data)
		case 3: // invalidate
			if _, err := st.Invalidate(v[0], v[1], off, n); err != nil {
				t.Fatalf("op %d invalidate: %v", i, err)
			}
		case 4: // epoch rotation / time jump
			clk.Advance(2 * time.Hour)
			if variant == VariantD {
				if err := st.RotateEpoch(); err != nil {
					t.Fatalf("op %d rotate: %v", i, err)
				}
			}
		default: // read (the common case, and also hot-set traffic)
			if rng.Intn(2) == 0 {
				off = 0 // a popular region so the cache really fills
			}
			got := make([]byte, n)
			if err := st.ReadAt(v[0], v[1], got, off); err != nil {
				t.Fatalf("op %d read: %v", i, err)
			}
			want := model[v][off : off+uint64(n)]
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: read(%d,%d)@%d diverged from model", i, v[0], v[1], off)
			}
		}
		if s := st.Stats(); s.CachedBlocks > s.CapacityBlocks {
			t.Fatalf("op %d: cache over capacity: %+v", i, s)
		}
	}
	// Final sweep: every block of both volumes must match the model.
	for _, v := range vols {
		got := make([]byte, volBytes)
		if err := st.ReadAt(v[0], v[1], got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model[v]) {
			t.Fatalf("final sweep diverged on volume %v", v)
		}
	}
	st2 := st.Stats()
	if st2.Hits() == 0 {
		t.Error("model test never hit the cache — workload too cold to be meaningful")
	}
}

// TestStoreCoherentAfterMidRunFaults injects backend failures mid-run and
// checks the store neither wedges nor serves stale/garbage data afterwards.
func TestStoreCoherentAfterMidRunFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clk := newFakeClock()
	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<16)
	faulty := store.NewFaulty(mem)
	st, err := Open(faulty, Options{
		CacheBytes: 16 * block.Size,
		SieveC:     sieve.CConfig{IMCTSize: 256, T1: 1, T2: 1, Window: time.Hour, Subwindows: 4},
		Now:        clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	model := make([]byte, 1<<16)
	failures := 0
	for i := 0; i < 2000; i++ {
		if rng.Intn(20) == 0 {
			faulty.FailAfter(int64(rng.Intn(3)))
		}
		off := uint64(rng.Intn(120)) * block.Size
		clk.Advance(50 * time.Millisecond)
		if rng.Intn(3) == 0 {
			data := make([]byte, block.Size)
			rng.Read(data)
			if err := st.WriteAt(0, 0, data, off); err != nil {
				failures++
				continue // failed writes may not reach the backend: model unchanged
			}
			copy(model[off:off+block.Size], data)
		} else {
			got := make([]byte, block.Size)
			if err := st.ReadAt(0, 0, got, off); err != nil {
				failures++
				continue
			}
			if !bytes.Equal(got, model[off:off+block.Size]) {
				t.Fatalf("op %d: read diverged after %d injected faults", i, failures)
			}
		}
	}
	if failures == 0 {
		t.Error("fault injection never fired; test is vacuous")
	}
}
