package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

func mustRun(t *testing.T, stdout io.Writer, args ...string) {
	t.Helper()
	if err := run(args, stdout, io.Discard); err != nil {
		t.Fatalf("trace %s: %v", strings.Join(args, " "), err)
	}
}

// digest counts r's requests and hashes them at the CSV schema's precision:
// times and durations in 100 ns ticks, every other field exact.
func digest(t *testing.T, r trace.Reader) (int, uint64) {
	t.Helper()
	h := fnv.New64a()
	n := 0
	for {
		req, err := r.Next()
		if err == io.EOF {
			return n, h.Sum64()
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, req.Time/100, req.Duration/100, req.Server, req.Volume, req.Kind, req.Offset, req.Length)
		n++
	}
}

// TestConversionsReproduceGenerator runs gen → bin → csv → daydir → bin and
// checks the last file holds the generator's request stream, then runs the
// info sink on the csv, bin and daydir forms of it.
func TestConversionsReproduceGenerator(t *testing.T) {
	dir := t.TempDir()
	bin, csv, days, last := filepath.Join(dir, "a.bin"), filepath.Join(dir, "b.csv"), filepath.Join(dir, "days"), filepath.Join(dir, "d.bin")
	mustRun(t, nil, "-scale", "65536", "-days", "2", "-seed", "3", "-outformat", "bin", "-out", bin)
	mustRun(t, nil, "-informat", "bin", "-in", bin, "-outformat", "csv", "-out", csv)
	mustRun(t, nil, "-informat", "csv", "-in", csv, "-outformat", "daydir", "-out", days)
	mustRun(t, nil, "-informat", "daydir", "-in", days, "-outformat", "bin", "-out", last)

	cfg := workload.Default(65536)
	cfg.Days, cfg.Seed = 2, 3
	gen, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantN, wantSum := digest(t, gen.Reader())
	f, err := os.Open(last)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, sum := digest(t, trace.NewBinaryReader(f)); n != wantN || sum != wantSum {
		t.Fatalf("round trip: %d requests (hash %x), generator %d (hash %x)", n, sum, wantN, wantSum)
	}

	var reports []string
	for _, src := range [][]string{{"csv", csv}, {"bin", bin}, {"daydir", days}} {
		var out bytes.Buffer
		mustRun(t, &out, "-informat", src[0], "-in", src[1], "-outformat", "info", "-gaps")
		reports = append(reports, out.String())
	}
	first := fmt.Sprintf("trace: %d requests,", wantN)
	for _, want := range []string{first, "Per-day popularity skew", "Per-server skew", "\nusr ", "day 0→1", "Reuse-gap distribution"} {
		if !strings.Contains(reports[0], want) {
			t.Errorf("info report lacks %q:\n%s", want, reports[0])
		}
	}
	for i, format := range []string{"bin", "daydir"} {
		if reports[i+1] != reports[0] {
			t.Errorf("info on %s differs from info on csv:\n%s\nvs\n%s", format, reports[i+1], reports[0])
		}
	}
}

// TestConfigRoundTrip reloads -outformat config through workload.LoadConfig,
// and through -in, where a flag given still overrides the file.
func TestConfigRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path, again := filepath.Join(dir, "ensemble.json"), filepath.Join(dir, "again.json")
	mustRun(t, nil, "-outformat", "config", "-scale", "4096", "-seed", "9", "-out", path)
	want := workload.Default(4096)
	want.Seed = 9
	got, err := workload.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded config differs:\n%+v\nwant\n%+v", got, want)
	}

	mustRun(t, nil, "-in", path, "-days", "3", "-outformat", "config", "-out", again)
	want.Days = 3
	if got, err = workload.LoadConfig(again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("config through -in differs:\n%+v\nwant\n%+v", got, want)
	}
}
