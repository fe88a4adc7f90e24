package sim

import (
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/sieve"
	"repro/internal/workload"
)

// BenchmarkContinuousProcess prices the simulator as the benchmark's
// lib_trace setup runs it: days 0–2 of Default(2048), seed 1, through an
// 8 MiB LRU cache under a sieve.C with the benchmark's tuning, a fresh
// simulator an iteration, in ns per block access.
func BenchmarkContinuousProcess(b *testing.B) {
	g, err := workload.New(workload.Default(2048))
	if err != nil {
		b.Fatal(err)
	}
	var reqs []block.Request
	for d := 0; d < 3; d++ {
		day, err := g.Day(d)
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, day...)
	}
	cfg := sieve.CConfig{IMCTSize: 1 << 28 / 2048, T1: 9, T2: 4, Window: 8 * time.Hour, Subwindows: 4}
	var accesses int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy, err := sieve.NewC(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c := NewContinuous(cache.New(8<<20/block.Size), policy)
		for j := range reqs {
			c.Process(&reqs[j])
		}
		accesses += c.Result(0).Total().Accesses
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
}
