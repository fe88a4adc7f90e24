// Command sievesim runs one cache-allocation policy over the synthetic
// ensemble trace and reports per-day hit ratios, allocation-writes, and
// drive-occupancy figures — a single cell of the paper's evaluation matrix.
//
// Usage:
//
//	sievesim -policy sievec -scale 4096 -cachegb 16
//	sievesim -policy wmna -cachegb 32
//	sievesim -policy sieved -threshold 10
//	sievesim -policy ideal
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/sieve"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sievesim: ")
	var (
		policy    = flag.String("policy", "sievec", "policy: sievec, sieved, aod, wmna, randc, randblkd, ideal, singletier, adaptive, perserver")
		scale     = flag.Int("scale", 4096, "trace scale divisor")
		seed      = flag.Int64("seed", 1, "trace seed")
		cacheGB   = flag.Float64("cachegb", 16, "cache size in GB (scaled)")
		threshold = flag.Int64("threshold", 10, "SieveStore-D epoch threshold")
		topFrac   = flag.Float64("top", 0.01, "ideal sieve popularity cut")
		randP     = flag.Float64("randp", 0.01, "random sieve allocation fraction")
		in        = flag.String("in", "", "day-split trace directory (see trace -outformat daydir); empty generates synthetically")
	)
	flag.Parse()

	cfg := exp.DefaultConfig(*scale)
	cfg.Workload.Seed = *seed
	var tr sim.Trace
	if *in != "" {
		dd, err := trace.OpenDayDir(*in)
		if err != nil {
			log.Fatal(err)
		}
		tr = dd
	} else {
		gen, err := workload.New(cfg.Workload)
		if err != nil {
			log.Fatal(err)
		}
		tr = gen
	}
	capacityBlocks := cfg.CacheBlocks(*cacheGB)

	var (
		res *sim.Result
		err error
	)
	switch *policy {
	case "sievec", "singletier":
		var p sieve.Policy
		if *policy == "sievec" {
			p, err = sieve.NewC(cfg.SieveC)
		} else {
			p, err = sieve.NewSingleTier(cfg.SieveC)
		}
		if err != nil {
			log.Fatal(err)
		}
		res, err = sim.RunContinuous(tr, capacityBlocks, p)
	case "adaptive":
		acfg := sieve.DefaultAdaptiveConfig()
		acfg.Base = cfg.SieveC
		var p *sieve.Adaptive
		p, err = sieve.NewAdaptive(acfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err = sim.RunContinuous(tr, capacityBlocks, p)
		if err == nil {
			fmt.Printf("adaptive sieve: final T2=%d after %d adjustments\n", p.T2(), p.Adjustments())
		}
	case "perserver":
		// Quadrant IV: one private SieveStore-C cache per server, the total
		// capacity split evenly.
		var perServer []*sim.Result
		res, perServer, err = sim.RunPerServerContinuous(tr, len(cfg.Workload.Servers), capacityBlocks, cfg.PerServerSieveC())
		if err == nil {
			fmt.Printf("per-server drives @99.9%% coverage (one device per server): %d\n",
				cfg.PerServerDrives(perServer))
		}
	case "aod":
		res, err = sim.RunContinuous(tr, capacityBlocks, sieve.AOD{})
	case "wmna":
		res, err = sim.RunContinuous(tr, capacityBlocks, sieve.WMNA{})
	case "randc":
		res, err = sim.RunContinuous(tr, capacityBlocks, sieve.NewRandC(*randP, *seed))
	case "sieved":
		dir, derr := os.MkdirTemp("", "sievesim-*")
		if derr != nil {
			log.Fatal(derr)
		}
		defer os.RemoveAll(dir)
		res, err = sim.RunSieveStoreD(tr, capacityBlocks, *threshold, dir)
	case "ideal":
		counters, cerr := sim.DayCounters(tr)
		if cerr != nil {
			log.Fatal(cerr)
		}
		res, err = sim.RunIdeal(tr, counters, capacityBlocks, *topFrac)
	case "randblkd":
		counters, cerr := sim.DayCounters(tr)
		if cerr != nil {
			log.Fatal(cerr)
		}
		res, err = sim.RunRandBlkD(tr, counters, capacityBlocks, *randP, *seed)
	default:
		log.Fatalf("unknown policy %q", *policy)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("policy=%s cache=%d blocks (%.0f GB-equivalent at scale 1/%d)\n\n",
		res.Name, capacityBlocks, *cacheGB, *scale)
	fmt.Printf("%-5s %12s %10s %10s %10s %12s %10s %8s\n",
		"Day", "Accesses", "ReadHits", "WriteHits", "AllocWr", "Moves", "Evict", "Hit%")
	for _, d := range res.Days {
		fmt.Printf("%-5d %12d %10d %10d %10d %12d %10d %8.2f\n",
			d.Day, d.Accesses, d.ReadHits, d.WriteHits, d.AllocWrites, d.Moves, d.Evictions, 100*d.HitRatio())
	}
	t := res.Total()
	fmt.Printf("%-5s %12d %10d %10d %10d %12d %10d %8.2f\n",
		"All", t.Accesses, t.ReadHits, t.WriteHits, t.AllocWrites, t.Moves, t.Evictions, 100*t.HitRatio())

	spec := ssd.IntelX25E()
	loads := metrics.ScaleLoads(res.Minutes, float64(*scale))
	occ := ssd.OccupancySeries(&spec, loads)
	maxOcc := 0.0
	for _, o := range occ {
		if o > maxOcc {
			maxOcc = o
		}
	}
	fmt.Printf("\ndrive occupancy (paper-scale, %s): max=%.2f under-1=%.2f%%\n",
		spec.Name, maxOcc, 100*ssd.FractionUnderOccupancy(occ, 1))
	for _, p := range ssd.CoverageTable(&spec, loads) {
		fmt.Printf("  drives @%5.1f%% coverage: %d\n", 100*p.Coverage, p.Drives)
	}
}
