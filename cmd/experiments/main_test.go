package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTraceDirSkipsSweeps evaluates a day directory: the sections that need
// the synthetic generator are skipped rather than run on a trace of their
// own, and the run reaches its summary.
func TestTraceDirSkipsSweeps(t *testing.T) {
	cfg := workload.Default(1 << 16)
	cfg.Days = 3
	gen, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := trace.SplitByDay(gen.Reader(), dir); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-trace", dir, "-scale", "65536"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "SUMMARY") || !strings.Contains(got, "-trace: the quadrants") {
		t.Errorf("no summary or no skip line:\n%s", got)
	}
	for _, id := range []string{"F1", "SENS"} {
		if strings.Contains(got, "= "+id+" —") {
			t.Errorf("section %s printed for a trace directory:\n%s", id, got)
		}
	}
}
