// Command experiments regenerates every table and figure of the paper's
// evaluation (Table 1/2, Figures 2-3 and 5-9, §5.3, the §5.1 sensitivity
// analyses and the DESIGN.md ablations) over the synthetic ensemble trace,
// printing each as a labelled plain-text table. EXPERIMENTS.md records a
// run of this command.
//
// Usage:
//
//	experiments                 # full run at the default scale (1/512)
//	experiments -scale 4096     # quicker, coarser
//	experiments -skip-sweeps    # omit the sensitivity/ablation reruns
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/exp"
	"repro/internal/sieve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		scale      = flag.Int("scale", 512, "trace scale divisor (512 = default experiment scale)")
		seed       = flag.Int64("seed", 1, "trace seed")
		skipSweeps = flag.Bool("skip-sweeps", false, "skip sensitivity sweeps and ablations")
		sweepScale = flag.Int("sweep-scale", 0, "scale for sweeps (default: 8x the main scale)")
		csvDir     = flag.String("csv", "", "also export per-figure CSV series into this directory")
		traceDir   = flag.String("trace", "", "day-split trace directory to evaluate instead of the synthetic workload (set -scale to the trace's scale; 1 for raw MSR traces)")
	)
	flag.Parse()

	if *sweepScale == 0 {
		*sweepScale = *scale * 8
	}
	cfg := exp.DefaultConfig(*scale)
	cfg.Workload.Seed = *seed
	cfg.TraceDir = *traceDir
	fmt.Printf("SieveStore reproduction — scale 1/%d, seed %d\n", *scale, *seed)
	fmt.Printf("(cache %.0f GB-equivalent = %d blocks; unsieved comparison also at %.0f GB)\n\n",
		cfg.CacheGB, cfg.CacheBlocks(cfg.CacheGB), cfg.BigCacheGB)

	res, err := exp.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	section := func(id, title string) {
		fmt.Printf("\n================ %s — %s ================\n", id, title)
	}

	section("T1", "Trace summary")
	fmt.Println(res.Table1())
	section("T2", "Allocation-policy impact (analytic, oracle replacement)")
	for _, row := range sieve.Table2(0.35, 0.75, 0) {
		fmt.Printf("%-32s hits=%.4f misses=%.4f allocW=%.4f readHits=%.4f ssdWrites=%.4f ssdOps=%.4f\n",
			row.Policy, row.Hits, row.Misses, row.AllocWrites, row.ReadHits, row.SSDWrites, row.SSDOps)
	}
	section("F2a", "Block access-count distribution")
	fmt.Println(res.Fig2a())
	section("F2bc", "Block popularity CDF")
	fmt.Println(res.Fig2b())
	section("F3", "Popularity-skew variation")
	fmt.Println(res.Fig3())
	section("F5", "Sieving effectiveness: accesses captured")
	fmt.Println(res.Fig5())
	section("F6", "Sieving effectiveness: allocation-writes")
	fmt.Println(res.Fig6())
	section("F7", "Total SSD accesses")
	fmt.Println(res.Fig7())
	section("F8-F9", "Drive IOPS occupancy and drives needed")
	fmt.Println(res.Fig89())
	section("S5.3", "Ensemble vs per-server caching")
	fmt.Println(res.Sec53())
	section("S5.1", "Endurance")
	for _, p := range []int{exp.PSieveD, exp.PSieveC} {
		bytesPerDay, life := res.Endurance(p)
		fmt.Printf("%-14s writes %.2f TB/day at paper scale → %.0f-year lifetime on a 1 PB drive\n",
			exp.PolicyName(p), bytesPerDay/1e12, life)
	}
	section("LAT", "Derived mean access latency (extension)")
	fmt.Println(res.LatencyTable())
	section("S7", "Scaling projection & network feasibility")
	fmt.Println(res.ScalingReport())

	sweepCfg := exp.DefaultConfig(*sweepScale)
	sweepCfg.Workload.Seed = *seed
	var sweep *exp.SweepResults
	if !*skipSweeps {
		if sweep, err = exp.Sweep(sweepCfg); err != nil {
			log.Fatal(err)
		}
		section("F1", fmt.Sprintf("Design-space quadrants (scale 1/%d)", *sweepScale))
		fmt.Println(exp.FormatQuadrants(sweep.Quadrants))
	}

	if *csvDir != "" {
		paths, err := res.ExportCSV(*csvDir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nexported %d CSV series under %s\n", len(paths), *csvDir)
	}

	if !*skipSweeps {
		section("SENS", fmt.Sprintf("Sensitivity & ablations (scale 1/%d)", *sweepScale))
		fmt.Println(exp.FormatSensitivity(sweep.DThreshold, sweep.CWindow, sweep.SingleTier, sweep.Subwindows))
		fmt.Println(exp.FormatReplacement(sweep.Replacement))
		fmt.Println(exp.FormatOracle(sweep.Oracle, sweep.OracleSieveC))
		seedRows, err := exp.SeedSweep(sweepCfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(exp.FormatSeedSweep(seedRows))
	}

	section("SUMMARY", "Headline results")
	fmt.Println(res.Summary())
}
