package sieve

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/block"
)

// BenchmarkSievePageRuns is the sieve as a sharded store drives it: eight
// sieves of DefaultCConfig's IMCTSize/8 slots, each page routed to one by
// its PageHash, fed whole missed 4 KiB pages — one Begin and eight Admits
// per page, a second apart, so a subwindow spans ~900 runs a sieve — from a
// seeded Zipf stream over 2^24 pages. The stream's offset v = 1024 flattens
// the head, as a cache holding the hottest pages would: about 1 % of misses
// promote and 0.4 % admit. It reports ns per missed block.
func BenchmarkSievePageRuns(b *testing.B) {
	const shards, pages, stream = 8, 1 << 24, 1 << 20
	cfg := DefaultCConfig()
	cfg.IMCTSize /= shards
	var sieves [shards]*C
	for i := range sieves {
		s, err := NewC(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sieves[i] = s
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1024, pages-1)
	keys := make([]block.Key, stream)
	for i := range keys {
		keys[i] = block.MakeKey(0, 0, zipf.Uint64()*block.BlocksPerPage)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i%stream]
		run := sieves[key.PageHash()%shards].Begin(int64(i) * int64(time.Second))
		for blk := block.Key(0); blk < block.BlocksPerPage; blk++ {
			run.Admit(key+blk, 0)
		}
	}
	var st CStats
	for _, s := range sieves {
		st.Add(s.Stats())
	}
	b.ReportMetric(float64(st.Promotions)/float64(st.Misses), "promoted/miss")
	b.ReportMetric(float64(st.Allocations)/float64(st.Misses), "admitted/miss")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*block.BlocksPerPage), "ns/miss")
}
