package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

const recordPrefix = "record "

// resultSet is one invocation's runs; a results file holds a list of sets.
type resultSet struct {
	Runs []record `json:"runs"`
}

type resultFile struct {
	Sets []resultSet `json:"sets"`
}

func loadResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return f, fmt.Errorf("%s: holds no result sets", path)
	}
	for i, set := range f.Sets {
		if len(set.Runs) == 0 {
			return f, fmt.Errorf("%s: set %d holds no runs", path, i+1)
		}
	}
	return f, nil
}

// runMany runs each chosen workload repeat times, every run in a fresh
// process of this same binary, alternating workloads so that drift on the
// box lands on all of them alike.
func runMany(name string, cfg runConfig, repeat int, out string) error {
	defs := workloads
	if name != "all" {
		def := findWorkload(name)
		if def == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		defs = []workloadDef{*def}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var set resultSet
	var failed []string
	for rep := 0; rep < repeat; rep++ {
		for _, def := range defs {
			r, err := runChild(exe, def.name, cfg)
			if err != nil {
				failed = append(failed, fmt.Sprintf("%s: %v", def.name, err))
			}
			if r != nil {
				set.Runs = append(set.Runs, *r)
			}
		}
	}
	if repeat > 1 {
		summarize(os.Stdout, set.Runs)
	}
	if out != "" {
		var f resultFile
		if f, err = loadResults(out); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		if len(set.Runs) == 0 {
			return errors.New(strings.Join(failed, "; "))
		}
		f.Sets = append(f.Sets, set)
		data, err := json.MarshalIndent(f, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

// runChild runs one workload in a child process, passes its table through,
// and returns the record it printed.
func runChild(exe, name string, cfg runConfig) (*record, error) {
	cmd := exec.Command(exe, "-workload", name,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds),
		fmt.Sprintf("-trace=%t", cfg.trace), fmt.Sprintf("-smoke=%t", cfg.smoke))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	var r *record
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, recordPrefix):
			r = new(record)
			if err := json.Unmarshal([]byte(line[len(recordPrefix):]), r); err != nil {
				return nil, err
			}
		case !strings.HasPrefix(line, "{"):
			fmt.Println(line)
		}
	}
	return r, runErr
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns, the
// method the harness uses, so spreads printed here are the spreads it sees.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// series collects one metric's values per workload from a set of runs.
func series(runs []record, workload, metric string) []float64 {
	var v []float64
	for i := range runs {
		if m, ok := runs[i].Metrics[metric]; ok && runs[i].Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

func summarize(w io.Writer, runs []record) {
	if len(runs) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-12s %-36s %3s %14s %14s %14s %8s\n", "workload", "metric", "n", "q1", "median", "q3", "spread")
	for _, def := range workloads {
		for _, d := range catalogFor(runs[0].Trace) {
			v := series(runs, def.name, d.name)
			if len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			fmt.Fprintf(w, "%-12s %-36s %3d %14.6g %14.6g %14.6g %7.2f%%\n", def.name, d.name, len(v), q1, q2, q3, 100*spread(v))
		}
	}
}

// verdict judges one end-to-end metric of one workload: base and cand are
// the two sides' values. worse is how far the candidate's median moved in
// the bad direction, as a share of the baseline's. A spread wider than the
// bound on either side cannot resolve a change of the bound's size, so the
// verdict is then unresolved, never ok.
func verdict(d metricDef, base, cand []float64) (v string, worse, noise float64) {
	mb, mc := median(base), median(cand)
	worse = mc - mb
	if d.better == "higher" {
		worse = -worse
	}
	if mb != 0 {
		worse /= mb
	}
	noise = spread(base)
	if s := spread(cand); s > noise {
		noise = s
	}
	switch {
	case noise > d.bound:
		return "unresolved", worse, noise
	case worse > d.bound:
		return "regressed", worse, noise
	}
	return "ok", worse, noise
}

// compareFiles prints a verdict per end-to-end metric and workload, the
// first set of file a as the baseline against the last set of file b, and
// fails when anything regressed.
func compareFiles(w io.Writer, a, b string) error {
	fa, err := loadResults(a)
	if err != nil {
		return err
	}
	fb, err := loadResults(b)
	if err != nil {
		return err
	}
	base, cand := fa.Sets[0], fb.Sets[len(fb.Sets)-1]
	fmt.Fprintf(w, "baseline  %s set 1: commit %s, %d runs\ncandidate %s set %d: commit %s, %d runs\n\n",
		a, base.Runs[0].Stamp.Commit, len(base.Runs), b, len(fb.Sets), cand.Runs[0].Stamp.Commit, len(cand.Runs))
	fmt.Fprintf(w, "%-12s %-26s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, def := range workloads {
		for _, d := range endToEnd {
			vb, vc := series(base.Runs, def.name, d.name), series(cand.Runs, def.name, d.name)
			if len(vb) == 0 || len(vc) == 0 {
				continue
			}
			v, worse, noise := verdict(d, vb, vc)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-26s %14.6g %14.6g %+7.2f%% %7.2f%% %6.0f%%  %s\n",
				def.name, d.name, median(vb), median(vc), 100*worse, 100*noise, 100*d.bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
