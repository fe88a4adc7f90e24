// Command bench is the repository's benchmark: four named workloads, the
// end-to-end metrics a user of the appliance sees, and a traced run that
// attributes them to layers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverArgs rewrites the harness's "--trace 0|1" into the boolean form the
// flag package parses, so "-trace" alone keeps working by hand.
func driverArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "workload to run: lib_hot, lib_trace, wire_trace, wire_epochs or all")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Int("seconds", defaultSeconds, "op-stream size, in seconds of wire_* wall clock at the commit that added the benchmark")
		trace   = fs.Bool("trace", false, "run traced and report the per-layer metrics instead of the end-to-end ones")
		smoke   = fs.Bool("smoke", false, "run about 1 % of each op stream, without bounds")
		repeat  = fs.Int("repeat", 1, "runs per workload; more than one prints median, quartiles and spread per metric")
		out     = fs.String("out", "", "append this invocation's runs to a results file, as one set")
		compare = fs.Bool("compare", false, "compare two results files given as arguments: the first set of the first against the last set of the second")
	)
	if err := fs.Parse(driverArgs(args)); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke}
	if def := findWorkload(*name); def != nil && *repeat == 1 && *out == "" {
		return runOne(def, cfg)
	}
	return runMany(*name, cfg, *repeat, *out)
}

// runOne measures one workload in this process and prints, last, the one
// JSON object the harness reads.
func runOne(def *workloadDef, cfg runConfig) error {
	r, err := runWorkload(def, cfg)
	if err != nil {
		return err
	}
	r.print(os.Stdout)
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", recordPrefix, full)

	type driverValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]driverValue `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]driverValue{}}
	defs := catalogFor(cfg.trace)
	if !cfg.trace {
		defs = defs[:declared]
	}
	for _, d := range defs {
		line.Metrics[d.name] = driverValue{r.Metrics[d.name].Value, d.unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	if !r.correct() {
		return fmt.Errorf("%s: run is not correct", def.name)
	}
	return nil
}
