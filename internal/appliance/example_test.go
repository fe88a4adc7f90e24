package appliance_test

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/sieve"
	"repro/internal/store"
)

// Example runs SieveStore as a TCP block-caching appliance in front of an
// ensemble (the paper's Figure 4 deployment). Four servers' clients share
// it at once, each with a small hot set and a long cold tail, and the sieve
// caches the hot sets while the cold tail passes through. Which blocks are
// resident depends on how the clients interleave, so the output states
// only a bound on the hit ratio.
func Example() {
	const servers, ops = 4, 3000
	backend := store.NewMem()
	for s := 0; s < servers; s++ {
		backend.AddVolume(s, 0, 1<<28)
	}
	st, err := core.Open(backend, core.Options{
		CacheBytes: 4 << 20,
		Variant:    core.VariantC,
		SieveC: sieve.CConfig{
			IMCTSize: 1 << 16, T1: 2, T2: 2,
			Window: time.Hour, Subwindows: 4,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	srv := appliance.NewServer(st)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	var wg sync.WaitGroup
	for s := 0; s < servers; s++ {
		wg.Add(1)
		go func(server int) {
			defer wg.Done()
			client, err := appliance.DialWith(l.Addr().String(), appliance.DialOptions{})
			if err != nil {
				log.Fatal(err)
			}
			defer client.Close()
			rng := rand.New(rand.NewSource(int64(server) + 1))
			buf := make([]byte, 4096)
			for i := 0; i < ops; i++ {
				page := 32 + rng.Intn(4096) // cold tail
				if rng.Float64() < 0.5 {
					page = int(32 * rng.Float64() * rng.Float64()) // skewed hot set
				}
				if rng.Float64() < 0.25 {
					err = client.WriteAt(server, 0, buf, uint64(page)*4096)
				} else {
					err = client.ReadAt(server, 0, buf, uint64(page)*4096)
				}
				if err != nil {
					log.Fatal(err)
				}
			}
		}(s)
	}
	wg.Wait()

	stats := st.Stats()
	fmt.Printf("%d clients × %d ops: %d blocks read, %d written\n", servers, ops, stats.Reads, stats.Writes)
	fmt.Println("over 40% served from the cache:", stats.HitRatio() > 0.4)
	// Output:
	// 4 clients × 3000 ops: 72504 blocks read, 23496 written
	// over 40% served from the cache: true
}
