package sieve

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/block"
)

// missedPages is a seeded Zipf stream of n missed pages' first blocks over
// 2^24 pages. Its offset v = 1024 flattens the head, as a cache holding the
// hottest pages would: about 1 % of misses promote and 0.4 % admit.
func missedPages(n int) []block.Key {
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1024, 1<<24-1)
	keys := make([]block.Key, n)
	for i := range keys {
		keys[i] = block.MakeKey(0, 0, zipf.Uint64()*block.BlocksPerPage)
	}
	return keys
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// reportSieves stops the timer and reports the sieves' promotions and
// admissions per miss, the benchmark's ns per missed block, and what the
// live heap grew by since base, the sieves' MCTs — map and page records,
// spare capacity included — per block they track.
func reportSieves(b *testing.B, base uint64, sieves ...*C) {
	b.StopTimer()
	grown := float64(heapAlloc()) - float64(base)
	var st CStats
	for _, s := range sieves {
		st.Add(s.Stats())
	}
	b.ReportMetric(float64(st.Promotions)/float64(st.Misses), "promoted/miss")
	b.ReportMetric(float64(st.Allocations)/float64(st.Misses), "admitted/miss")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*block.BlocksPerPage), "ns/miss")
	b.ReportMetric(grown/float64(max(st.MCTSize, 1)), "B/tracked")
}

// BenchmarkSievePageRuns is the sieve as a sharded store drives it: eight
// sieves of DefaultCConfig's IMCTSize/8 slots, each page routed to one by
// its PageHash, fed missedPages whole — one Begin and eight Admits per page,
// a second apart, so a subwindow spans ~900 runs a sieve.
func BenchmarkSievePageRuns(b *testing.B) {
	const shards, stream = 8, 1 << 20
	cfg := DefaultCConfig()
	cfg.IMCTSize /= shards
	sieves := make([]*C, shards)
	for i := range sieves {
		s, err := NewC(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sieves[i] = s
	}
	keys := missedPages(stream)
	base := heapAlloc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i%stream]
		run := sieves[key.PageHash()%shards].Begin(int64(i) * int64(time.Second))
		for blk := block.Key(0); blk < block.BlocksPerPage; blk++ {
			run.Admit(key+blk, false)
		}
	}
	reportSieves(b, base, sieves...)
	runtime.KeepAlive(keys)
}

// BenchmarkSieveBlockCalls prices ShouldAllocate, a run of one miss: one
// sieve of DefaultCConfig fed missedPages a second apart, one call per
// missed block. The simulator opens one run a request instead (AdmitRun),
// the shape BenchmarkSievePageRuns prices.
func BenchmarkSieveBlockCalls(b *testing.B) {
	const stream = 1 << 20
	s, err := NewC(DefaultCConfig())
	if err != nil {
		b.Fatal(err)
	}
	keys := missedPages(stream)
	base := heapAlloc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := block.Access{Time: int64(i) * int64(time.Second), Key: keys[i%stream]}
		for blk := 0; blk < block.BlocksPerPage; blk++ {
			s.ShouldAllocate(acc)
			acc.Key++
		}
	}
	reportSieves(b, base, s)
	runtime.KeepAlive(keys)
}
