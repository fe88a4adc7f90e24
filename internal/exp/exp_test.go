package exp

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// expTestScale keeps the end-to-end experiment cheap while preserving the
// capacity ratios the shapes depend on.
const expTestScale = 8192

// The experiment run and the sweep at expTestScale, shared by every test,
// and the seed sweep at twice that scale.
var (
	runFixture   = sync.OnceValues(func() (*Results, error) { return Run(DefaultConfig(expTestScale)) })
	sweepFixture = sync.OnceValues(func() (*SweepResults, error) { return Sweep(DefaultConfig(expTestScale)) })
	seedFixture  = sync.OnceValues(func() ([]SeedRow, error) { return SeedSweep(DefaultConfig(expTestScale * 2)) })
)

// TestMain starts the shared runs at once: a parallel test holds one of the
// -parallel slots while it waits, so runs started by the tests would queue.
func TestMain(m *testing.M) {
	flag.Parse()
	go runFixture()
	go sweepFixture()
	if !testing.Short() {
		go seedFixture()
	}
	os.Exit(m.Run())
}

// must returns f's value, failing the test on its error.
func must[T any](t *testing.T, f func() (T, error)) T {
	t.Helper()
	v, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func results(t *testing.T) *Results    { return must(t, runFixture) }
func sweep(t *testing.T) *SweepResults { return must(t, sweepFixture) }

// contains fails the test unless out holds every wanted string.
func contains(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output lacks %q:\n%s", w, out)
		}
	}
}

// byKey indexes rows by key, failing the test unless every wanted key has
// a row.
func byKey[R any, K comparable](t *testing.T, rows []R, key func(R) K, want ...K) map[K]R {
	t.Helper()
	m := make(map[K]R, len(rows))
	for _, r := range rows {
		m[key(r)] = r
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Fatalf("no %T row for %v in %+v", *new(R), k, rows)
		}
	}
	return m
}

func TestRunProducesAllPolicies(t *testing.T) {
	t.Parallel()
	res := results(t)
	if res.Days != 8 || len(res.DayInfo) != 8 {
		t.Fatalf("days = %d, dayinfo = %d", res.Days, len(res.DayInfo))
	}
	for p := 0; p < numPolicies; p++ {
		r := res.Policies[p]
		if r == nil {
			t.Fatalf("policy %s missing", PolicyName(p))
		}
		if len(r.Days) != 8 {
			t.Errorf("%s: %d day rows", PolicyName(p), len(r.Days))
		}
		// Allocation-writes triggered by requests issued just before
		// midnight may complete in the next minute, so the series can run
		// slightly past the nominal trace length.
		if n := len(r.Minutes); n < 8*24*60 || n > 8*24*60+5 {
			t.Errorf("%s: %d minutes, want ≈11520", PolicyName(p), n)
		}
		tot := r.Total()
		if tot.Accesses == 0 {
			t.Errorf("%s: zero accesses", PolicyName(p))
		}
		// Every policy sees the same access stream.
		if tot.Accesses != res.Policies[0].Total().Accesses {
			t.Errorf("%s: access count differs", PolicyName(p))
		}
		if tot.Reads+tot.Writes != tot.Accesses {
			t.Errorf("%s: reads+writes != accesses", PolicyName(p))
		}
		if tot.Hits() > tot.Accesses {
			t.Errorf("%s: more hits than accesses", PolicyName(p))
		}
	}
}

func TestPaperShapeHolds(t *testing.T) {
	t.Parallel()
	res := results(t)
	ideal := res.steadyHits(PIdeal)
	d := res.steadyHits(PSieveD)
	c := res.steadyHits(PSieveC)
	if !(ideal >= c && c >= d) {
		t.Errorf("ordering broken: ideal=%v C=%v D=%v", ideal, c, d)
	}
	// SieveStore variants must beat the best unsieved cache on steady days
	// (Figure 5's headline: +35% / +50%).
	if g := res.GainOverUnsieved(PSieveC); g < 1.1 {
		t.Errorf("SieveStore-C gain over unsieved = %.2f, want >1.1", g)
	}
	if g := res.GainOverUnsieved(PSieveD); g < 1.0 {
		t.Errorf("SieveStore-D gain over unsieved = %.2f, want ≥1.0", g)
	}
	// SieveStore-D bootstraps with an empty cache on day 0.
	if res.Policies[PSieveD].Days[0].Hits() != 0 {
		t.Error("SieveStore-D should have zero hits on day 0")
	}
	// Allocation-writes: orders of magnitude apart (Figure 6).
	cAlloc := res.Policies[PSieveC].Total().AllocWrites
	uAlloc := res.Policies[PWMNA32].Total().AllocWrites
	if cAlloc*20 > uAlloc {
		t.Errorf("alloc-writes not separated: C=%d WMNA32=%d", cAlloc, uAlloc)
	}
	// Random sieves allocate far more than SieveStore (≈8.5x in the paper).
	rAlloc := res.Policies[PRandC].Total().AllocWrites
	if rAlloc < 2*cAlloc {
		t.Errorf("RandSieve-C allocs = %d, want ≫ SieveStore-C's %d", rAlloc, cAlloc)
	}
	// SieveStore-D's batch moves stay tiny relative to accesses (§3.2:
	// ≤0.5%).
	dTot := res.Policies[PSieveD].Total()
	if f := float64(dTot.Moves) / float64(dTot.Accesses); f > 0.005 {
		t.Errorf("SieveStore-D moves fraction = %.4f, want ≤0.005", f)
	}
	// RandSieve-BlkD is hopeless (Figure 5).
	if res.Policies[PRandBlkD].Total().HitRatio() > 0.05 {
		t.Error("RandSieve-BlkD should capture almost nothing")
	}
}

func TestDayInfoStatistics(t *testing.T) {
	t.Parallel()
	res := results(t)
	for _, di := range res.DayInfo[1:] {
		if di.Top1Share < 0.08 || di.Top1Share > 0.62 {
			t.Errorf("day %d top-1%% share = %.3f out of range", di.Day, di.Top1Share)
		}
		if di.LE10 < 0.95 {
			t.Errorf("day %d ≤10-access fraction = %.3f", di.Day, di.LE10)
		}
		if di.Once < 0.3 || di.Once > 0.75 {
			t.Errorf("day %d single-access fraction = %.3f", di.Day, di.Once)
		}
		sum := 0.0
		for _, s := range di.Composition {
			sum += s
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("day %d composition sums to %.3f", di.Day, sum)
		}
	}
	// Successive-day top-set overlap is partial but substantial (O2).
	for _, di := range res.DayInfo[2:] {
		if di.OverlapWithPrev < 0.2 || di.OverlapWithPrev > 0.98 {
			t.Errorf("day %d overlap = %.2f", di.Day, di.OverlapWithPrev)
		}
	}
}

func TestOccupancyAndEndurance(t *testing.T) {
	t.Parallel()
	res := results(t)
	sieveOcc := res.Occupancy(PSieveC)
	wmnaOcc := res.Occupancy(PWMNA32)
	// §5.2: SieveStore fits in (nearly) one drive; WMNA needs several.
	if sieveOcc.Coverage[2].Drives > 2 {
		t.Errorf("SieveStore-C needs %d drives @99.9%%", sieveOcc.Coverage[2].Drives)
	}
	if wmnaOcc.Coverage[2].Drives <= sieveOcc.Coverage[2].Drives {
		t.Errorf("WMNA should need more drives: %d vs %d",
			wmnaOcc.Coverage[2].Drives, sieveOcc.Coverage[2].Drives)
	}
	if sieveOcc.FracUnder1 < 0.95 {
		t.Errorf("SieveStore-C under-1 fraction = %.3f", sieveOcc.FracUnder1)
	}
	// §5.1: endurance ≥ 10 years at paper scale.
	if _, life := res.Endurance(PSieveC); life < 5 {
		t.Errorf("SieveStore-C lifetime = %.1f years", life)
	}
}

func TestReportRenderers(t *testing.T) {
	t.Parallel()
	res := results(t)
	for name, s := range map[string]string{
		"Table1":  res.Table1(),
		"Fig2a":   res.Fig2a(),
		"Fig2b":   res.Fig2b(),
		"Fig3":    res.Fig3(),
		"Fig5":    res.Fig5(),
		"Fig6":    res.Fig6(),
		"Fig7":    res.Fig7(),
		"Fig89":   res.Fig89(),
		"Sec53":   res.Sec53(),
		"Summary": res.Summary(),
	} {
		if len(s) == 0 || !strings.Contains(s, "\n") {
			t.Errorf("%s renders empty", name)
		}
	}
	contains(t, res.Table1(), "prxy")
	contains(t, res.Fig5(), "SieveStore-C")
}

func TestSkewCurvesCollected(t *testing.T) {
	t.Parallel()
	res := results(t)
	if len(res.Skew.PrxyDay2) == 0 || len(res.Skew.Src1Day2) == 0 {
		t.Fatal("Fig3a curves missing")
	}
	if len(res.Skew.WebVol0Day2) == 0 || len(res.Skew.WebVol1Day2) == 0 {
		t.Fatal("Fig3b curves missing")
	}
	if len(res.Skew.StgDay3) == 0 || len(res.Skew.StgDay5) == 0 {
		t.Fatal("Fig3c curves missing")
	}
	// Prxy must be visibly more skewed than Src1 at the 5% point.
	prxy := cdfAt(res.Skew.PrxyDay2, 0.05)
	src1 := cdfAt(res.Skew.Src1Day2, 0.05)
	if prxy <= src1 {
		t.Errorf("prxy CDF@5%% (%.3f) should exceed src1's (%.3f)", prxy, src1)
	}
}

// TestSweepRowsGolden pins every sweep row at full precision, byte for byte,
// to rows recorded from the one-pass-per-configuration sweeps.
func TestSweepRowsGolden(t *testing.T) {
	t.Parallel()
	var b strings.Builder
	s := reflect.ValueOf(*sweep(t))
	for i := range s.NumField() {
		rows := s.Field(i)
		if rows.Kind() != reflect.Slice {
			rows = reflect.ValueOf([]any{rows.Interface()})
		}
		for j := range rows.Len() {
			fmt.Fprintf(&b, "%T %+v\n", rows.Index(j).Interface(), rows.Index(j).Interface())
		}
	}
	if want, err := os.ReadFile("testdata/sweep_rows.txt"); err != nil || b.String() != string(want) {
		t.Errorf("sweep rows moved (%v):\n got:\n%s\nwant:\n%s", err, b.String(), want)
	}
}

// TestRunRowsGolden pins Run's results at full precision, byte for byte:
// every policy's per-day statistics and an FNV-64 hash of its minute series
// (Figures 5–9), each day's scalar trace analyses (Figures 2 and 3, O1/O2)
// and the three §5.3 series.
func TestRunRowsGolden(t *testing.T) {
	t.Parallel()
	got := runRows(results(t))
	if want, err := os.ReadFile("testdata/run_rows.txt"); err != nil || got != string(want) {
		t.Errorf("run rows moved (%v):\n got:\n%s\nwant:\n%s", err, got, want)
	}
}

// runRows renders what TestRunRowsGolden pins.
func runRows(res *Results) string {
	var b strings.Builder
	for p, r := range res.Policies {
		for _, d := range r.Days {
			fmt.Fprintf(&b, "%s %+v\n", PolicyName(p), d)
		}
		h := fnv.New64()
		fmt.Fprintf(h, "%+v", r.Minutes)
		fmt.Fprintf(&b, "%s minutes=%d fnv64=%016x\n", PolicyName(p), len(r.Minutes), h.Sum64())
	}
	for _, di := range res.DayInfo {
		b.WriteString("DayInfo")
		v := reflect.ValueOf(di)
		for i := range v.NumField() {
			if f := v.Field(i); f.Kind() != reflect.Slice {
				fmt.Fprintf(&b, " %s:%v", v.Type().Field(i).Name, f.Interface())
			}
		}
		b.WriteString("\n")
	}
	names := []string{"PerServerElastic", "PerServerStatic", "EnsembleShared"}
	for i, series := range [][]sim.PerServerStats{res.PerServerElastic, res.PerServerStatic, res.EnsembleShared} {
		for _, s := range series {
			fmt.Fprintf(&b, "%s %+v\n", names[i], s)
		}
	}
	return b.String()
}

func TestSensitivityD(t *testing.T) {
	t.Parallel()
	ts := []int64{4, 8, 10, 14, 20}
	rows := byKey(t, sweep(t).DThreshold, func(r DThresholdRow) int64 { return r.Threshold }, ts...)
	// Hit ratio declines (weakly) as the threshold rises; moves decline
	// strongly. In the 8-20 range the hit ratio must be fairly flat (§5.1).
	for i := 1; i < len(ts); i++ {
		prev, cur := rows[ts[i-1]], rows[ts[i]]
		if cur.HitRatio > prev.HitRatio+1e-9 {
			t.Errorf("hit ratio increased with threshold: %+v then %+v", prev, cur)
		}
		if cur.Moves > prev.Moves {
			t.Errorf("moves increased with threshold: %+v then %+v", prev, cur)
		}
	}
	// The paper reports insensitivity in the 8-20 range. Our synthetic hot
	// counts sit closer to the boundary than the real traces' (a deliberate
	// trade to reproduce the Figure 5 sieved-vs-unsieved gap), so the decay
	// is steeper; assert it remains gradual rather than cliff-like.
	if rows[20].HitRatio < rows[8].HitRatio*0.4 {
		t.Errorf("hit ratio too sensitive in 8-20 range: t8=%.3f t20=%.3f",
			rows[8].HitRatio, rows[20].HitRatio)
	}
}

func TestSensitivityCWindowAndAblation(t *testing.T) {
	t.Parallel()
	s := sweep(t)
	w := byKey(t, s.CWindow, func(r CWindowRow) time.Duration { return r.Window }, 2*time.Hour, 8*time.Hour)
	// Short windows degrade (the paper observed degradation below 8 h).
	if w[2*time.Hour].HitRatio > w[8*time.Hour].HitRatio {
		t.Errorf("2h window (%.3f) should not beat 8h (%.3f)", w[2*time.Hour].HitRatio, w[8*time.Hour].HitRatio)
	}
	if len(s.SingleTier) != 2 {
		t.Fatal("want 2 ablation rows")
	}
	a := byKey(t, s.SingleTier, func(r AblationRow) string { return r.Name }, "SieveStore-C", "SingleTier-IMCT")
	// The single-tier sieve admits aliased low-reuse blocks: far more
	// allocation-writes.
	two, one := a["SieveStore-C"], a["SingleTier-IMCT"]
	if one.AllocWrites*10 < 15*two.AllocWrites {
		t.Errorf("single-tier allocs = %d, two-tier = %d; expected blowup", one.AllocWrites, two.AllocWrites)
	}
	k := byKey(t, s.Subwindows, func(r SubwindowRow) int { return r.Subwindows }, 2, 4, 8)
	// k barely matters (the discretization is benign).
	for _, r := range []SubwindowRow{k[4], k[8]} {
		if diff := r.HitRatio - k[2].HitRatio; diff > 0.05 || diff < -0.05 {
			t.Errorf("subwindow sensitivity too strong: %+v vs %+v", r, k[2])
		}
	}
	contains(t, FormatSensitivity(nil, s.CWindow, s.SingleTier, s.Subwindows), "SingleTier")
}

func TestPolicyNameCoversAll(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for p := 0; p < numPolicies; p++ {
		name := PolicyName(p)
		if name == "" || seen[name] {
			t.Errorf("policy %d has bad/duplicate name %q", p, name)
		}
		seen[name] = true
	}
	if got := PolicyName(99); got != "policy-99" {
		t.Errorf("unknown policy name = %q", got)
	}
}

func TestCacheBlocksScaling(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig(512)
	// 16 GiB at 1/512 = 65536 blocks; the 32 GiB comparison cache doubles it.
	if got := cfg.CacheBlocks(16); got != 65536 {
		t.Errorf("16GB at 1/512 = %d blocks", got)
	}
	if got := cfg.CacheBlocks(32); got != 131072 {
		t.Errorf("32GB at 1/512 = %d blocks", got)
	}
	// Tiny configurations floor at 8 blocks.
	tiny := DefaultConfig(1 << 30)
	if got := tiny.CacheBlocks(0.000001); got != 8 {
		t.Errorf("floor = %d", got)
	}
}
