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
	"io"
	"log"
	"os"

	"repro/internal/exp"
	"repro/internal/sieve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command, printing every section to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		scale      = fs.Int("scale", 512, "trace scale divisor (512 = default experiment scale)")
		seed       = fs.Int64("seed", 1, "trace seed")
		skipSweeps = fs.Bool("skip-sweeps", false, "skip sensitivity sweeps and ablations")
		csvDir     = fs.String("csv", "", "also export per-figure CSV series into this directory")
		traceDir   = fs.String("trace", "", "day-split trace directory to evaluate instead of the synthetic workload (set -scale to the trace's scale; 1 for raw MSR traces); the sweeps need the generator and are skipped")
	)
	fs.Parse(args)

	cfg := exp.DefaultConfig(*scale)
	cfg.Workload.Seed = *seed
	cfg.TraceDir = *traceDir
	fmt.Fprintf(stdout, "SieveStore reproduction — scale 1/%d, seed %d\n", *scale, *seed)
	fmt.Fprintf(stdout, "(cache %.0f GB-equivalent = %d blocks; unsieved comparison also at %.0f GB)\n\n",
		exp.CacheGB, cfg.CacheBlocks(exp.CacheGB), exp.BigCacheGB)
	res, err := exp.Run(cfg)
	if err != nil {
		return err
	}
	printRun(stdout, res)

	// The sweeps run at 8x the main scale, over the generator's trace.
	sweepCfg := exp.DefaultConfig(*scale * 8)
	sweepCfg.Workload.Seed = *seed
	var sw *exp.SweepResults
	if !*skipSweeps && *traceDir != "" {
		fmt.Fprintln(stdout, "\n(-trace: the quadrants, sensitivity sweeps, ablations and seed sweep need the synthetic generator; skipped)")
	} else if !*skipSweeps {
		if sw, err = exp.Sweep(sweepCfg); err != nil {
			return err
		}
		section(stdout, "F1", fmt.Sprintf("Design-space quadrants (scale 1/%d)", sweepCfg.Workload.Scale), exp.FormatQuadrants(sw.Quadrants))
	}
	if *csvDir != "" {
		paths, err := res.ExportCSV(*csvDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nexported %d CSV series under %s\n", len(paths), *csvDir)
	}
	if sw != nil {
		seedRows, err := exp.SeedSweep(sweepCfg)
		if err != nil {
			return err
		}
		section(stdout, "SENS", fmt.Sprintf("Sensitivity & ablations (scale 1/%d)", sweepCfg.Workload.Scale),
			exp.FormatSensitivity(sw.DThreshold, sw.CWindow, sw.SingleTier, sw.Subwindows),
			exp.FormatReplacement(sw.Replacement), exp.FormatOracle(sw.Oracle, sw.OracleSieveC), exp.FormatSeedSweep(seedRows))
	}
	section(stdout, "SUMMARY", "Headline results", res.Summary())
	return nil
}

// section prints a section banner and then each body.
func section(w io.Writer, id, title string, bodies ...string) {
	fmt.Fprintf(w, "\n================ %s — %s ================\n", id, title)
	for _, b := range bodies {
		fmt.Fprintln(w, b)
	}
}

// printRun prints the sections that read the main run, Table 1 to §7.
func printRun(w io.Writer, res *exp.Results) {
	section(w, "T1", "Trace summary", res.Table1())
	section(w, "T2", "Allocation-policy impact (analytic, oracle replacement)")
	for _, row := range sieve.Table2(0.35, 0.75, 0) {
		fmt.Fprintf(w, "%-32s hits=%.4f misses=%.4f allocW=%.4f readHits=%.4f ssdWrites=%.4f ssdOps=%.4f\n",
			row.Policy, row.Hits, row.Misses, row.AllocWrites, row.ReadHits, row.SSDWrites, row.SSDOps)
	}
	section(w, "F2a", "Block access-count distribution", res.Fig2a())
	section(w, "F2bc", "Block popularity CDF", res.Fig2b())
	section(w, "F3", "Popularity-skew variation", res.Fig3())
	section(w, "F5", "Sieving effectiveness: accesses captured", res.Fig5())
	section(w, "F6", "Sieving effectiveness: allocation-writes", res.Fig6())
	section(w, "F7", "Total SSD accesses", res.Fig7())
	section(w, "F8-F9", "Drive IOPS occupancy and drives needed", res.Fig89())
	section(w, "S5.3", "Ensemble vs per-server caching", res.Sec53())
	section(w, "S5.1", "Endurance")
	for _, p := range []int{exp.PSieveD, exp.PSieveC} {
		bytesPerDay, life := res.Endurance(p)
		fmt.Fprintf(w, "%-14s writes %.2f TB/day at paper scale → %.0f-year lifetime on a 1 PB drive\n",
			exp.PolicyName(p), bytesPerDay/1e12, life)
	}
	section(w, "LAT", "Derived mean access latency (extension)", res.LatencyTable())
	section(w, "S7", "Scaling projection & network feasibility", res.ScalingReport())
}
