package core_test

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/sieve"
	"repro/internal/store"
)

// Example demonstrates the basic SieveStore flow: writes go through to the
// backend; a block that keeps missing is eventually admitted by the sieve
// and served from the cache, while a one-shot scan is sieved out and costs
// no allocation-writes.
func Example() {
	backend := store.NewMem()
	backend.AddVolume(0, 0, 1<<30)

	// The sieve admits a block only after repeated misses within the hour
	// (thresholds T1 and T2 of its two counting tiers). A fixed clock keeps
	// its windows, and so the output, the same on every run.
	st, err := core.Open(backend, core.Options{
		CacheBytes: 1 << 20,
		Variant:    core.VariantC,
		SieveC: sieve.CConfig{
			IMCTSize: 1 << 16, T1: 2, T2: 2,
			Window: time.Hour, Subwindows: 4,
		},
		Now: func() time.Time { return time.Unix(0, 0) },
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	hot := bytes.Repeat([]byte("hot!"), 1024) // one 4 KiB page
	if err := st.WriteAt(0, 0, hot, 0); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := 1; i <= 5; i++ {
		if err := st.ReadAt(0, 0, buf, 0); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("read %d: cached=%v\n", i, st.Contains(0, 0, 0))
	}
	fmt.Println("data intact:", bytes.Equal(buf, hot))

	// A scan reads 100 other pages once each: none is admitted.
	for off := uint64(1 << 20); off < 1<<20+100*4096; off += 4096 {
		if err := st.ReadAt(0, 0, buf, off); err != nil {
			log.Fatal(err)
		}
	}
	s := st.Stats()
	fmt.Printf("hits=%d alloc-writes=%d cached=%d\n", s.Hits(), s.AllocWrites, s.CachedBlocks)
	// Output:
	// read 1: cached=false
	// read 2: cached=true
	// read 3: cached=true
	// read 4: cached=true
	// read 5: cached=true
	// data intact: true
	// hits=24 alloc-writes=8 cached=8
}

// ExampleStore_RotateEpoch shows the discrete SieveStore-D flow: accesses
// are logged during the epoch and popular blocks are batch-allocated at the
// boundary.
func ExampleStore_RotateEpoch() {
	backend := store.NewMem()
	backend.AddVolume(0, 0, 1<<20)
	st, err := core.Open(backend, core.Options{
		CacheBytes: 64 * 512,
		Variant:    core.VariantD,
		DThreshold: 3,
		Epoch:      24 * time.Hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	buf := make([]byte, 512)
	for i := 0; i < 5; i++ {
		st.ReadAt(0, 0, buf, 0) // popular block: 5 accesses this epoch
	}
	st.ReadAt(0, 0, buf, 4096) // one-shot block

	fmt.Printf("before rotation: cached=%d\n", st.Stats().CachedBlocks)
	if err := st.RotateEpoch(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after rotation: cached=%d (threshold 3 admitted only the popular block)\n",
		st.Stats().CachedBlocks)
	// Output:
	// before rotation: cached=0
	// after rotation: cached=1 (threshold 3 admitted only the popular block)
}

// ExampleStore_SaveSnapshot carries what the sieve learned across a
// restart: a write-back store's snapshot (saving it flushes the dirty
// blocks first) lets the next process hit from its first request, where a
// cold one has to sieve the hot set again.
func ExampleStore_SaveSnapshot() {
	backend := store.NewMem()
	backend.AddVolume(0, 0, 1<<28)
	open := func() *core.Store {
		st, err := core.Open(backend, core.Options{
			CacheBytes: 2 << 20,
			Variant:    core.VariantC,
			WriteBack:  true,
			SieveC: sieve.CConfig{
				IMCTSize: 1 << 14, T1: 2, T2: 2,
				Window: time.Hour, Subwindows: 4,
			},
			Now: func() time.Time { return time.Unix(0, 0) },
		})
		if err != nil {
			log.Fatal(err)
		}
		return st
	}
	// phase runs 2 500 reads and writes of 4 KiB, 60 % of them to 64 hot
	// pages, and returns its hit ratio.
	phase := func(st *core.Store, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		before := st.Stats()
		buf := make([]byte, 4096)
		for i := 0; i < 2500; i++ {
			page := 64 + rng.Intn(4096)
			if rng.Float64() < 0.6 {
				page = int(64 * rng.Float64() * rng.Float64())
			}
			off, err := uint64(page)*4096, error(nil)
			if rng.Float64() < 0.3 {
				err = st.WriteAt(0, 0, buf, off)
			} else {
				err = st.ReadAt(0, 0, buf, off)
			}
			if err != nil {
				log.Fatal(err)
			}
		}
		after := st.Stats()
		return float64(after.Hits()-before.Hits()) / float64(after.Reads+after.Writes-before.Reads-before.Writes)
	}

	first := open()
	fmt.Printf("first run: %.1f%% hits, then %.1f%%\n", 100*phase(first, 1), 100*phase(first, 2))
	var snap bytes.Buffer
	if err := first.SaveSnapshot(&snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d blocks, %d still dirty\n", first.Stats().CachedBlocks, first.Stats().DirtyBlocks)
	first.Close()

	cold := open()
	fmt.Printf("cold restart: %.1f%% hits\n", 100*phase(cold, 3))
	cold.Close()

	warm := open()
	if err := warm.LoadSnapshot(&snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm restart: %d blocks resident, %.1f%% hits\n", warm.Stats().CachedBlocks, 100*phase(warm, 3))
	warm.Close()
	// Output:
	// first run: 53.6% hits, then 61.0%
	// snapshot: 1616 blocks, 0 still dirty
	// cold restart: 53.7% hits
	// warm restart: 1616 blocks resident, 61.8% hits
}
