package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestExportCSV(t *testing.T) {
	t.Parallel()
	res := results(t)
	dir := t.TempDir()
	paths, err := res.ExportCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fig2a_access_counts.csv", "fig2bc_cdf.csv", "fig3d_composition.csv",
		"fig5_captured.csv", "fig6_alloc_writes.csv", "fig7_ssd_ops.csv",
		"fig8_occupancy.csv", "fig9_drives.csv", "sec53_perserver.csv",
	}
	if len(paths) != len(want) {
		t.Fatalf("wrote %d files, want %d: %v", len(paths), len(want), paths)
	}
	for i, name := range want {
		if filepath.Base(paths[i]) != name {
			t.Errorf("file %d = %s, want %s", i, filepath.Base(paths[i]), name)
		}
		data, err := os.ReadFile(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) < 2 {
			t.Errorf("%s has no data rows", name)
			continue
		}
		// Every row must have the header's column count.
		cols := len(strings.Split(lines[0], ","))
		for j, l := range lines[1:] {
			if got := len(strings.Split(l, ",")); got != cols {
				t.Errorf("%s row %d: %d cols, want %d", name, j+1, got, cols)
				break
			}
		}
	}
	// fig5 must contain every policy.
	data, _ := os.ReadFile(filepath.Join(dir, "fig5_captured.csv"))
	for p := 0; p < numPolicies; p++ {
		contains(t, string(data), PolicyName(p))
	}
}

func TestScalingAndNetwork(t *testing.T) {
	t.Parallel()
	res := results(t)
	table := res.Scaling(PSieveC, []float64{1, 4, 16})
	if len(table) != 3 {
		t.Fatalf("rows = %d", len(table))
	}
	for i := 1; i < len(table); i++ {
		if table[i].Drives < table[i-1].Drives {
			t.Error("drive needs must grow with load")
		}
	}
	if table[0].Drives < 1 {
		t.Error("at least one drive")
	}
	maxOcc, worst := res.Network(PSieveC)
	if maxOcc < 0 || maxOcc > 2 {
		t.Errorf("network occupancy = %v, implausible", maxOcc)
	}
	if worst < 0.4 || worst > 0.7 {
		t.Errorf("worst-case SSD fraction = %v, want ≈0.5", worst)
	}
	report := res.ScalingReport()
	contains(t, report, "ensemble load", "network")
}

func TestQuadrants(t *testing.T) {
	t.Parallel()
	rows := sweep(t).Quadrants
	q := byKey(t, rows, func(r QuadrantResult) string { return r.Quadrant }, "I", "II", "III", "IV")
	qI, qII, qIII, qIV := q["I"], q["II"], q["III"], q["IV"]
	// Quadrant I must dominate on hits and be cheapest on drives.
	if qI.HitRatio <= qII.HitRatio || qI.HitRatio <= qIII.HitRatio {
		t.Errorf("quadrant I not dominant: %+v", rows)
	}
	if qI.Drives > qIII.Drives || qI.Drives > qIV.Drives {
		t.Errorf("quadrant I not cheapest: I=%d III=%d IV=%d", qI.Drives, qIII.Drives, qIV.Drives)
	}
	// Per-server configurations pay at least one device per server.
	if qIII.Drives < 13 || qIV.Drives < 13 {
		t.Errorf("per-server drive floor missing: III=%d IV=%d", qIII.Drives, qIV.Drives)
	}
	// Sieving slashes allocation-writes in both deployment styles.
	if qI.AllocWrites*20 > qII.AllocWrites || qIV.AllocWrites*20 > qIII.AllocWrites {
		t.Errorf("sieving not reducing alloc-writes: %+v", rows)
	}
	contains(t, FormatQuadrants(rows), "Quadrant I dominates")
}

func TestLatencyTable(t *testing.T) {
	t.Parallel()
	res := results(t)
	// SieveStore-C must show a larger speedup than the unsieved cache: the
	// speedup column renders.
	contains(t, res.LatencyTable(), "SieveStore-C", "speedup", "x")
}

func TestAblationReplacement(t *testing.T) {
	t.Parallel()
	rows := sweep(t).Replacement
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	classic := []string{"WMNA", "WMNA/CLOCK", "WMNA/FIFO"}
	unsieved := append(classic, "WMNA/SIEVE", "WMNA/S3-FIFO")
	r := byKey(t, rows, func(r ReplacementRow) string { return r.Name }, append(unsieved, "SieveStore-C")...)
	sieved := r["SieveStore-C"]
	// §3.1: the classic replacement policies (LRU, CLOCK, FIFO) cannot
	// rescue the unsieved cache's hit ratio...
	for _, name := range classic {
		if r[name].HitRatio >= sieved.HitRatio {
			t.Errorf("unsieved %s (%.3f) matched sieved (%.3f)", name, r[name].HitRatio, sieved.HitRatio)
		}
	}
	// ...and NO unsieved policy — including the quick-demotion engines,
	// which can approach the sieved hit ratio — escapes allocating on
	// every miss: the allocation-write storm is the allocation policy's.
	for _, name := range unsieved {
		if r[name].AllocWrites < 10*sieved.AllocWrites {
			t.Errorf("unsieved %s alloc-writes (%d) not dominated", name, r[name].AllocWrites)
		}
	}
	// The classic unsieved variants cluster: replacement choice moves the
	// needle far less than sieving does.
	lo, hi := r["WMNA"].HitRatio, r["WMNA"].HitRatio
	for _, name := range classic {
		lo, hi = min(lo, r[name].HitRatio), max(hi, r[name].HitRatio)
	}
	if hi-lo > sieved.HitRatio-hi {
		t.Errorf("replacement spread (%.3f) exceeds the sieving gap (%.3f)", hi-lo, sieved.HitRatio-hi)
	}
	contains(t, FormatReplacement(rows), "unsieved", "sieved cache")
}

// TestReplacementConstructorsPanic checks that every replacement engine the
// ablation builds its unsieved caches from rejects a zero capacity.
func TestReplacementConstructorsPanic(t *testing.T) {
	t.Parallel()
	for _, f := range []func(){
		func() { cache.New(0) },
		func() { cache.NewClock(0) },
		func() { cache.NewFIFO(0) },
		func() { cache.NewSieve(0) },
		func() { cache.NewS3FIFO(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("zero capacity accepted")
				}
			}()
			f()
		}()
	}
}

func TestRunMinOracle(t *testing.T) {
	t.Parallel()
	rows := sweep(t).Oracle
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	o := byKey(t, rows, func(r OracleRow) string { return r.Name }, "MIN + allocate-on-demand", "MIN + selective-allocation")
	aod, sel := o["MIN + allocate-on-demand"], o["MIN + selective-allocation"]
	// MIN maximizes hits: at least as many as the day's measured ideal.
	res := results(t)
	if aod.HitRatio() < res.Policies[PIdeal].Days[oracleDay].HitRatio()*0.9 {
		t.Errorf("MIN-AOD hit ratio %.3f below ideal's %.3f", aod.HitRatio(),
			res.Policies[PIdeal].Days[oracleDay].HitRatio())
	}
	// Selective allocation never hits less than AOD under MIN... it can
	// only skip useless allocations, so hits match or exceed.
	if sel.Hits < aod.Hits {
		t.Errorf("selective MIN hits %d < AOD MIN hits %d", sel.Hits, aod.Hits)
	}
	// The §3.1 punchline: AOD pays an allocation-write on every miss.
	if aod.Hits+aod.AllocWrites != aod.Accesses {
		t.Error("MIN-AOD conservation broken")
	}
	// And even selective oracle allocation uses far more allocation-writes
	// than the sieve (which allocates ~0.1-1% of accesses).
	cAllocs := res.Policies[PSieveC].Days[oracleDay].AllocWrites
	if sel.AllocWrites < 5*cAllocs {
		t.Errorf("oracle-selective allocs %d vs sieve %d: expected a wide gap", sel.AllocWrites, cAllocs)
	}
	contains(t, FormatOracle(rows, res.Policies[PSieveC].Days[oracleDay]), "SieveStore-C")
}

func TestRunFromTraceDir(t *testing.T) {
	t.Parallel()
	// Write the synthetic trace to a day directory, then run the full
	// evaluation from the files: results must match the generator run
	// exactly (same trace, same seeds). No check depends on a paper figure,
	// so the scale is the largest the generator accepts: every one of the
	// 13 servers still has requests on each of the 3 days.
	cfg := DefaultConfig(1 << 17)
	cfg.Workload.Days = 3
	gen, err := workload.New(cfg.Workload)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := trace.SplitByDay(gen.Reader(), dir); err != nil {
		t.Fatal(err)
	}

	fromGen := must(t, func() (*Results, error) { return Run(cfg) })
	cfgDir := cfg
	cfgDir.TraceDir = dir
	fromDir := must(t, func() (*Results, error) { return Run(cfgDir) })
	if fromDir.Days != 3 {
		t.Fatalf("days = %d", fromDir.Days)
	}
	for p := 0; p < numPolicies; p++ {
		g := fromGen.Policies[p].Total()
		d := fromDir.Policies[p].Total()
		if g.Hits() != d.Hits() || g.Accesses != d.Accesses || g.AllocWrites != d.AllocWrites {
			t.Errorf("%s: generator %+v vs tracedir %+v", PolicyName(p), g, d)
		}
	}
	if len(fromDir.ServerNames) != 13 {
		t.Errorf("discovered %d servers", len(fromDir.ServerNames))
	}
	for _, di := range fromDir.DayInfo {
		if len(di.Composition) != len(fromDir.ServerNames) {
			t.Errorf("day %d composition has %d entries", di.Day, len(di.Composition))
		}
	}
	// Renderers must work without the synthetic name table.
	contains(t, fromDir.Table1(), "server0")
	contains(t, fromDir.Fig5(), "SieveStore-C")
}

func TestSeedSweep(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multiple full runs")
	}
	rows := must(t, seedFixture)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The headline must hold for every seed: sieving beats unsieved.
		if r.GainC <= 1.0 {
			t.Errorf("seed %d: SieveStore-C gain %.2f ≤ 1", r.Seed, r.GainC)
		}
		if r.Ideal <= 0.05 || r.Ideal >= 0.6 {
			t.Errorf("seed %d: ideal hit %.3f implausible", r.Seed, r.Ideal)
		}
	}
	// Different seeds produce different traces.
	seeds := byKey(t, rows, func(r SeedRow) int64 { return r.Seed }, 1, 2, 3)
	if seeds[1].Ideal == seeds[2].Ideal && seeds[2].Ideal == seeds[3].Ideal {
		t.Error("seeds did not change the trace")
	}
	contains(t, FormatSeedSweep(rows), "C-gain")
}
