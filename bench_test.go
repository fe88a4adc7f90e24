// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (see DESIGN.md's per-experiment index). Each
// BenchmarkTable*/BenchmarkFig*/BenchmarkSec* target rebuilds one artifact
// from a shared experiment run (done once, at a reduced scale) and reports
// its headline numbers as benchmark metrics; -v additionally logs the full
// rows. The two benchmarks at the bottom time trace generation and one
// simulated day; what the serving path costs is the bench/ module's job
// (make bench-e2e).
//
//	go test -bench=. -benchmem                  # everything
//	go test -bench=BenchmarkFig5 -v             # one figure, with its rows
package repro

import (
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/exp"
	"repro/internal/sieve"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchScale trades fidelity for time: the full experiment and the sweep at
// this scale run in a few seconds each. cmd/experiments regenerates
// everything at the default 1/512 scale.
const benchScale = 16384

// The experiment run and the sweep, each done once and shared by every
// benchmark.
var (
	benchRun   = sync.OnceValues(func() (*exp.Results, error) { return exp.Run(exp.DefaultConfig(benchScale)) })
	benchSweep = sync.OnceValues(func() (*exp.SweepResults, error) { return exp.Sweep(exp.DefaultConfig(benchScale)) })
)

// fixture returns a shared fixture's value, failing the benchmark on its
// error.
func fixture[T any](b *testing.B, f func() (T, error)) T {
	b.Helper()
	v, err := f()
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func results(b *testing.B) *exp.Results { return fixture(b, benchRun) }

func sweep(b *testing.B) *exp.SweepResults { return fixture(b, benchSweep) }

// BenchmarkTable1TraceSummary regenerates Table 1 (the ensemble/trace
// roster summary).
func BenchmarkTable1TraceSummary(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Table1()
	}
	b.Logf("\n%s", table)
	b.ReportMetric(float64(res.TraceStats.Requests), "requests")
	b.ReportMetric(float64(res.TraceStats.UniqueBlocks), "unique-blocks")
}

// BenchmarkTable2AllocationPolicyImpact regenerates the analytic Table 2.
func BenchmarkTable2AllocationPolicyImpact(b *testing.B) {
	var rows []sieve.Table2Row
	for i := 0; i < b.N; i++ {
		rows = sieve.Table2(0.35, 0.75, 0)
	}
	b.Logf("%+v", rows)
	b.ReportMetric(rows[0].SSDWrites*100, "AOD-ssd-writes-%")
	b.ReportMetric(rows[1].SSDWrites*100, "WMNA-ssd-writes-%")
	b.ReportMetric(rows[2].SSDOps*100, "ISA-ssd-ops-%")
}

// BenchmarkFig2aAccessCountDistribution regenerates Figure 2(a).
func BenchmarkFig2aAccessCountDistribution(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig2a()
	}
	b.Logf("\n%s", table)
	// Headline: the top-1% boundary sits near 10 accesses/day (O1).
	day := res.DayInfo[2]
	for _, bin := range day.Bins {
		if bin.UpperPercentile >= 0.01 {
			b.ReportMetric(bin.AvgCount, "top1pct-bin-avg-count")
			break
		}
	}
}

// BenchmarkFig2bPopularityCDF regenerates Figure 2(b).
func BenchmarkFig2bPopularityCDF(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig2b()
	}
	b.Logf("\n%s", table)
	b.ReportMetric(res.DayInfo[2].Top1Share*100, "day2-top1pct-share-%")
}

// BenchmarkFig2cZoomCDF regenerates Figure 2(c) (the top-5% zoom is the
// same CDF restricted to the knee).
func BenchmarkFig2cZoomCDF(b *testing.B) {
	res := results(b)
	var knee float64
	for i := 0; i < b.N; i++ {
		for _, p := range res.DayInfo[2].CDF {
			if p.Percentile >= 0.05 {
				knee = p.CumFraction
				break
			}
		}
	}
	b.ReportMetric(knee*100, "day2-top5pct-share-%")
}

// BenchmarkFig3aServerVariation regenerates Figure 3(a).
func BenchmarkFig3aServerVariation(b *testing.B) {
	res := results(b)
	var prxy, src1 float64
	for i := 0; i < b.N; i++ {
		prxy = cdfAt(res.Skew.PrxyDay2, 0.01)
		src1 = cdfAt(res.Skew.Src1Day2, 0.01)
	}
	b.ReportMetric(prxy*100, "prxy-top1pct-%")
	b.ReportMetric(src1*100, "src1-top1pct-%")
}

// BenchmarkFig3bVolumeVariation regenerates Figure 3(b).
func BenchmarkFig3bVolumeVariation(b *testing.B) {
	res := results(b)
	var v0, v1 float64
	for i := 0; i < b.N; i++ {
		v0 = cdfAt(res.Skew.WebVol0Day2, 0.01)
		v1 = cdfAt(res.Skew.WebVol1Day2, 0.01)
	}
	b.ReportMetric(v0*100, "web-vol0-top1pct-%")
	b.ReportMetric(v1*100, "web-vol1-top1pct-%")
}

// BenchmarkFig3cTimeVariation regenerates Figure 3(c).
func BenchmarkFig3cTimeVariation(b *testing.B) {
	res := results(b)
	var d3, d5 float64
	for i := 0; i < b.N; i++ {
		d3 = cdfAt(res.Skew.StgDay3, 0.01)
		d5 = cdfAt(res.Skew.StgDay5, 0.01)
	}
	b.ReportMetric(d3*100, "stg-day3-top1pct-%")
	b.ReportMetric(d5*100, "stg-day5-top1pct-%")
}

// BenchmarkFig3dTop1Composition regenerates Figure 3(d).
func BenchmarkFig3dTop1Composition(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig3()
	}
	b.Logf("\n%s", table)
	// Headline: the composition varies day to day; report one server's swing.
	minS, maxS := 1.0, 0.0
	for _, di := range res.DayInfo[1:] {
		s := di.Composition[0] // usr
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	b.ReportMetric(minS*100, "usr-share-min-%")
	b.ReportMetric(maxS*100, "usr-share-max-%")
}

// BenchmarkFig5AccessesCaptured regenerates Figure 5.
func BenchmarkFig5AccessesCaptured(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig5()
	}
	b.Logf("\n%s", table)
	b.ReportMetric(100*res.Policies[exp.PIdeal].Total().HitRatio(), "ideal-hit-%")
	b.ReportMetric(100*res.Policies[exp.PSieveD].Total().HitRatio(), "sievestore-d-hit-%")
	b.ReportMetric(100*res.Policies[exp.PSieveC].Total().HitRatio(), "sievestore-c-hit-%")
	b.ReportMetric(100*res.Policies[exp.PWMNA32].Total().HitRatio(), "wmna32-hit-%")
	b.ReportMetric(100*(res.GainOverUnsieved(exp.PSieveD)-1), "d-gain-over-unsieved-%")
	b.ReportMetric(100*(res.GainOverUnsieved(exp.PSieveC)-1), "c-gain-over-unsieved-%")
}

// BenchmarkFig6AllocationWrites regenerates Figure 6.
func BenchmarkFig6AllocationWrites(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig6()
	}
	b.Logf("\n%s", table)
	c := res.Policies[exp.PSieveC].Total().AllocWrites
	u := res.Policies[exp.PWMNA32].Total().AllocWrites
	d := res.Policies[exp.PSieveD].Total().Moves
	b.ReportMetric(float64(c), "sievestore-c-allocs")
	b.ReportMetric(float64(d), "sievestore-d-moves")
	b.ReportMetric(float64(u)/float64(c), "unsieved-blowup-x")
}

// BenchmarkFig7SSDAccesses regenerates Figure 7.
func BenchmarkFig7SSDAccesses(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig7()
	}
	b.Logf("\n%s", table)
	cTot := res.Policies[exp.PSieveC].Total()
	uTot := res.Policies[exp.PWMNA32].Total()
	b.ReportMetric(float64(cTot.SSDOps()), "sievestore-c-ssd-ops")
	b.ReportMetric(float64(uTot.SSDOps()), "wmna32-ssd-ops")
	b.ReportMetric(float64(uTot.AllocWrites)/float64(uTot.SSDOps()+1), "wmna32-alloc-fraction")
}

// BenchmarkFig8IOPSOccupancy regenerates Figure 8.
func BenchmarkFig8IOPSOccupancy(b *testing.B) {
	res := results(b)
	var sieveOcc, wmnaOcc exp.OccupancyAnalysis
	for i := 0; i < b.N; i++ {
		sieveOcc = res.Occupancy(exp.PSieveC)
		wmnaOcc = res.Occupancy(exp.PWMNA32)
	}
	b.ReportMetric(sieveOcc.MaxOccupancy, "sievestore-c-max-occ")
	b.ReportMetric(100*sieveOcc.FracUnder1, "sievestore-c-under1-%")
	b.ReportMetric(wmnaOcc.MaxOccupancy, "wmna32-max-occ")
}

// BenchmarkFig9DrivesNeeded regenerates Figure 9.
func BenchmarkFig9DrivesNeeded(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig89()
	}
	b.Logf("\n%s", table)
	sd := res.Occupancy(exp.PSieveD)
	sc := res.Occupancy(exp.PSieveC)
	w := res.Occupancy(exp.PWMNA32)
	b.ReportMetric(float64(sd.Coverage[2].Drives), "sievestore-d-drives@99.9")
	b.ReportMetric(float64(sc.Coverage[2].Drives), "sievestore-c-drives@99.9")
	b.ReportMetric(float64(w.Coverage[2].Drives), "wmna32-drives@99.9")
}

// BenchmarkSec53PerServer regenerates the §5.3 ensemble-vs-per-server
// comparison.
func BenchmarkSec53PerServer(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Sec53()
	}
	b.Logf("\n%s", table)
	var ens, elastic, static float64
	for d := 2; d < res.Days; d++ {
		ens += res.EnsembleShared[d].HitRatio()
		elastic += res.PerServerElastic[d].HitRatio()
		static += res.PerServerStatic[d].HitRatio()
	}
	n := float64(res.Days - 2)
	b.ReportMetric(100*ens/n, "ensemble-hit-%")
	b.ReportMetric(100*elastic/n, "perserver-elastic-hit-%")
	b.ReportMetric(100*static/n, "perserver-static-hit-%")
}

// BenchmarkSensitivityDThreshold regenerates the §5.1 SieveStore-D
// threshold sweep.
func BenchmarkSensitivityDThreshold(b *testing.B) {
	s := sweep(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = exp.FormatSensitivity(s.DThreshold, nil, nil, nil)
	}
	b.Logf("\n%s", table)
	for _, r := range s.DThreshold {
		switch r.Threshold {
		case 10:
			b.ReportMetric(r.HitRatio*100, "t10-hit-%")
		case 20:
			b.ReportMetric(r.HitRatio*100, "t20-hit-%")
		}
	}
}

// BenchmarkSensitivityCWindow regenerates the §5.1 window sweep.
func BenchmarkSensitivityCWindow(b *testing.B) {
	s := sweep(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = exp.FormatSensitivity(nil, s.CWindow, nil, nil)
	}
	b.Logf("\n%s", table)
	for _, r := range s.CWindow {
		switch r.Window {
		case 2 * time.Hour:
			b.ReportMetric(r.HitRatio*100, "w2h-hit-%")
		case 8 * time.Hour:
			b.ReportMetric(r.HitRatio*100, "w8h-hit-%")
		}
	}
}

// BenchmarkAblationSingleTier regenerates the two-tier-vs-single-tier
// ablation (DESIGN.md).
func BenchmarkAblationSingleTier(b *testing.B) {
	s := sweep(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = exp.FormatSensitivity(nil, nil, s.SingleTier, nil)
	}
	b.Logf("\n%s", table)
	rows := s.SingleTier
	b.ReportMetric(float64(rows[1].AllocWrites)/float64(rows[0].AllocWrites), "single-tier-alloc-blowup-x")
}

// BenchmarkFig1Quadrants regenerates the Figure 1 design-space matrix
// (sieved/unsieved × ensemble/per-server).
func BenchmarkFig1Quadrants(b *testing.B) {
	rows := sweep(b).Quadrants
	var table string
	for i := 0; i < b.N; i++ {
		table = exp.FormatQuadrants(rows)
	}
	b.Logf("\n%s", table)
	b.ReportMetric(100*rows[0].HitRatio, "QI-sieved-ensemble-hit-%")
	b.ReportMetric(100*rows[1].HitRatio, "QII-unsieved-ensemble-hit-%")
	b.ReportMetric(100*rows[3].HitRatio, "QIV-sieved-perserver-hit-%")
	b.ReportMetric(float64(rows[0].Drives), "QI-drives")
	b.ReportMetric(float64(rows[2].Drives), "QIII-drives")
}

// BenchmarkEnduranceLifetime regenerates the §5.1 endurance estimate.
func BenchmarkEnduranceLifetime(b *testing.B) {
	res := results(b)
	var life float64
	for i := 0; i < b.N; i++ {
		_, life = res.Endurance(exp.PSieveC)
	}
	b.ReportMetric(life, "sievestore-c-lifetime-years")
}

// cdfAt reads a CDF curve at a percentile.
func cdfAt(points []analysis.CDFPoint, pct float64) float64 {
	for _, p := range points {
		if p.Percentile >= pct {
			return p.CumFraction
		}
	}
	if len(points) == 0 {
		return 0
	}
	return points[len(points)-1].CumFraction
}

// ---- generator and simulator ----

// BenchmarkWorkloadDayGeneration measures synthesizing one trace day.
func BenchmarkWorkloadDayGeneration(b *testing.B) {
	gen, err := workload.New(workload.Default(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Day(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorDay measures simulating one day under SieveStore-C.
func BenchmarkSimulatorDay(b *testing.B) {
	gen, err := workload.New(workload.Default(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := gen.Day(2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exp.DefaultConfig(benchScale)
	var accesses int64
	for _, r := range reqs {
		accesses += int64(r.Blocks())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy, err := sieve.NewC(cfg.SieveC())
		if err != nil {
			b.Fatal(err)
		}
		c := sim.NewContinuous(cache.New(cfg.CacheBlocks(exp.CacheGB)), policy)
		for j := range reqs {
			c.Process(&reqs[j])
		}
	}
	b.ReportMetric(float64(accesses), "block-accesses/op")
}
