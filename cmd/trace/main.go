// Command trace generates, converts and analyses block traces: one source
// (-informat) feeds one sink (-outformat).
//
// Sources: csv (the MSR-Cambridge schema; a quoted glob merges per-volume
// files, each time-ordered, into one stream), bin (the compact binary
// format), daydir (a day-split directory) and gen (the synthetic Table 1
// ensemble; -in optionally names a JSON ensemble config, which -scale,
// -days and -seed override when given).
//
// Sinks: csv, bin, daydir (one binary file per calendar day, sorted by
// time), config (the gen source's ensemble as JSON, to edit and pass back
// as -in) and info (§2's per-day popularity skew, per-server skew and
// day-over-day top-set overlap; -gaps adds the reuse-gap distribution).
//
//	trace -scale 4096 -out trace.csv
//	trace -outformat config > ensemble.json
//	trace -in ensemble.json -outformat daydir -out days/
//	trace -informat csv -in 'msr/*.csv' -outformat daydir -out days/
//	trace -informat daydir -in days/ -outformat info -gaps
//
// bin and daydir traces carry server IDs, not names. In CSV, IDs 0–12 are
// named after the Table 1 roster (usr, proj, …), the MSR traces' host
// names, so a real trace keeps one numbering however its files are merged.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/block"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trace: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the command: stdout is the "-" output, stderr gets the summary.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var (
		in        = fs.String("in", "", "input file, quoted glob or day directory ('-': stdin); with -informat gen, an optional JSON ensemble config")
		informat  = fs.String("informat", "gen", "input format: csv, bin, daydir or gen")
		out       = fs.String("out", "-", "output file or day directory ('-': stdout)")
		outformat = fs.String("outformat", "csv", "output format: csv, bin, daydir, config or info")
		epoch     = fs.Int64("epoch", 0, "FILETIME ticks of time zero in CSV input and output (0: timestamps are relative)")
		scale     = fs.Int("scale", workload.DefaultScale, "gen: trace scale divisor (1 = the paper's volume)")
		days      = fs.Int("days", 8, "gen: calendar days")
		seed      = fs.Int64("seed", 1, "gen: generator seed")
		top       = fs.Float64("top", 0.01, "info: popularity cut of the hot set")
		gaps      = fs.Bool("gaps", false, "info: add the reuse-gap distribution by popularity class")
	)
	fs.Parse(args)

	roster := workload.Default(1)
	names := trace.NewNameTable(roster.ServerNames()...)
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	var open func() (trace.Reader, error) // a fresh reader over the whole input
	switch *informat {
	case "gen":
		cfg := workload.Default(*scale)
		if *in != "" {
			var err error
			if cfg, err = workload.LoadConfig(*in); err != nil {
				return err
			}
		}
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scale":
				cfg.Scale = *scale
			case "days":
				cfg.Days = *days
			case "seed":
				cfg.Seed = *seed
			}
		})
		if *outformat == "config" {
			data, err := workload.EncodeConfig(cfg)
			if err != nil {
				return err
			}
			return create(*out, stdout, func(w io.Writer) error { _, err := w.Write(data); return err })
		}
		gen, err := workload.New(cfg)
		if err != nil {
			return err
		}
		names = gen.Names()
		open = func() (trace.Reader, error) { return gen.Reader(), nil }
	case "daydir":
		dd, err := trace.OpenDayDir(*in)
		if err != nil {
			return err
		}
		open = func() (trace.Reader, error) { return dd.Reader(), nil }
	case "csv", "bin":
		if *in == "-" && *gaps {
			return errors.New("-gaps reads the input twice: name a file, not stdin")
		}
		open = func() (trace.Reader, error) { return openFiles(*in, *informat == "csv", names, *epoch, &files) }
	default:
		return fmt.Errorf("unknown -informat %q (want csv, bin, daydir or gen)", *informat)
	}
	if *outformat == "info" {
		return create(*out, stdout, func(w io.Writer) error { return info(w, open, names, *top, *gaps) })
	}
	return convert(open, *outformat, *out, names, *epoch, stdout, stderr)
}

// openFiles merges the csv (else bin) files that the glob in names, or
// stdin for "-", into one reader, adding each file it opens to files.
func openFiles(in string, csv bool, names *trace.NameTable, epoch int64, files *[]*os.File) (trace.Reader, error) {
	paths, err := filepath.Glob(in)
	switch {
	case in == "-":
		paths = []string{in}
	case err != nil:
		return nil, err
	case len(paths) == 0:
		return nil, fmt.Errorf("no input matches %q", in)
	}
	readers := make([]trace.Reader, len(paths))
	for i, path := range paths {
		f := os.Stdin
		if path != "-" {
			if f, err = os.Open(path); err != nil {
				return nil, err
			}
			*files = append(*files, f)
		}
		readers[i] = trace.NewBinaryReader(f)
		if csv {
			readers[i] = trace.NewCSVReader(f, names, epoch)
		}
	}
	return trace.Merge(readers...), nil
}

// convert writes the input as a csv or bin file, or as a day directory.
func convert(open func() (trace.Reader, error), outformat, out string, names *trace.NameTable, epoch int64, stdout, stderr io.Writer) error {
	if outformat == "config" {
		return errors.New("-outformat config needs -informat gen")
	} else if outformat != "csv" && outformat != "bin" && outformat != "daydir" {
		return fmt.Errorf("unknown -outformat %q (want csv, bin, daydir, config or info)", outformat)
	} else if outformat == "daydir" && out == "-" {
		return errors.New("-outformat daydir needs -out <directory>")
	}
	r, err := open()
	if err != nil {
		return err
	}
	if outformat == "daydir" {
		n, err := trace.SplitByDay(r, out)
		if err != nil {
			return err
		}
		dd, err := trace.OpenDayDir(out)
		if err != nil {
			return err
		}
		if err := dd.SortDayFiles(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace: wrote %d day files under %s\n", n, out)
		return nil
	}
	return create(out, stdout, func(w io.Writer) error {
		var sink interface {
			trace.Writer
			Flush() error
		} = trace.NewBinaryWriter(w)
		if outformat == "csv" {
			sink = trace.NewCSVWriter(w, names, epoch)
		}
		n, err := drain(r, sink.Write)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace: wrote %d requests\n", n)
		return sink.Flush()
	})
}

// create runs fn on the output: stdout for "-", else a new file, whose
// close error counts.
func create(out string, stdout io.Writer, fn func(io.Writer) error) error {
	if out == "-" {
		return fn(stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// drain hands every request of r to fn and returns how many there were.
func drain(r trace.Reader, fn func(block.Request) error) (int64, error) {
	var n int64
	for {
		req, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := fn(req); err != nil {
			return n, err
		}
		n++
	}
}

// info prints §2's analyses of a trace: per-day popularity skew (O1),
// per-server skew and day-over-day top-set overlap (O2), and with gaps the
// reuse-gap distribution by popularity class, which reads the trace again.
func info(w io.Writer, open func() (trace.Reader, error), names *trace.NameTable, top float64, gaps bool) error {
	r, err := open()
	if err != nil {
		return err
	}
	var days, servers []*analysis.Counter
	count := func(cs []*analysis.Counter, i int, req *block.Request) []*analysis.Counter {
		for len(cs) <= i {
			cs = append(cs, analysis.NewCounter())
		}
		cs[i].AddRequest(req)
		return cs
	}
	var accesses int64
	requests, err := drain(r, func(req block.Request) error {
		days = count(days, trace.DayOf(req.Time), &req)
		servers = count(servers, req.Server, &req)
		accesses += int64(req.Blocks())
		return nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "trace: %d requests, %d block accesses, %d days\n\n", requests, accesses, len(days))
	fmt.Fprintln(w, "Per-day popularity skew (paper §2, O1):")
	fmt.Fprintf(w, "%-5s %12s %12s %10s %8s %8s %8s\n", "Day", "Accesses", "Unique", "top-share", "once", "≤4", "≤10")
	for d, c := range days {
		if c.Total() > 0 {
			fmt.Fprintf(w, "%-5d %12d %12d %10.3f %8.3f %8.3f %8.3f\n",
				d, c.Total(), c.Unique(), c.TopShare(top), c.CountLE(1), c.CountLE(4), c.CountLE(10))
		}
	}
	fmt.Fprintln(w, "\nPer-server skew (whole trace, O2):")
	fmt.Fprintf(w, "%-10s %12s %12s %10s\n", "Server", "Accesses", "Unique", "top-share")
	for id, c := range servers {
		if c.Total() > 0 {
			fmt.Fprintf(w, "%-10s %12d %12d %10.3f\n", names.Name(id), c.Total(), c.Unique(), c.TopShare(top))
		}
	}
	if len(days) > 1 {
		fmt.Fprintln(w, "\nDay-over-day top-set overlap (O2):")
		for d, prev := 1, days[0].TopFraction(top); d < len(days); d++ {
			cur := days[d].TopFraction(top)
			fmt.Fprintf(w, "  day %d→%d: %.2f\n", d-1, d, analysis.Overlap(prev, cur))
			prev = cur
		}
	}
	if gaps {
		report, err := analysis.ReuseGaps(open, analysis.DefaultGapClasses())
		if err != nil {
			return err
		}
		fmt.Fprint(w, "\n", report)
	}
	return nil
}
