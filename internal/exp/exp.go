// Package exp is the experiment harness: it reruns every table and figure
// of the paper's evaluation (§2, §5) over the synthetic ensemble trace and
// returns typed rows that cmd/experiments prints and bench_test.go reports.
// Run computes the main evaluation; Sweep computes the §5.1 sensitivity
// sweeps, the ablations, the Figure 1 quadrants and the §3.1 oracle day.
//
// Each simulates all of its configurations in lockstep, day by day, so each
// trace day is generated exactly once and memory stays bounded by a single
// day plus the policies' own metastate.
package exp

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/block"
	"repro/internal/sieve"
	"repro/internal/sieved"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config parameterizes a full experiment run.
type Config struct {
	// Workload is the trace configuration (defaults to the Table 1
	// ensemble at the given scale).
	Workload workload.Config
	// CacheGB is the SieveStore cache size before scaling (16 GB in the
	// paper); BigCacheGB is the enlarged unsieved cache (32 GB).
	CacheGB    float64
	BigCacheGB float64
	// TopFrac is the ideal sieve's popularity cut (top 1%).
	TopFrac float64
	// DThreshold is SieveStore-D's epoch access-count threshold (10).
	DThreshold int64
	// SieveC configures SieveStore-C.
	SieveC sieve.CConfig
	// RandP is the random sieves' allocation fraction (1%).
	RandP float64
	// Seed drives the random sieves.
	Seed int64
	// SpillDir hosts SieveStore-D's partition logs; empty uses a temp dir.
	SpillDir string
	// TraceDir, when set, replays a day-split trace directory (see
	// cmd/trace -outformat daydir) instead of generating the synthetic
	// workload — the path for running the evaluation on real MSR traces.
	// Workload.Scale is still used to size the cache and to scale the
	// drive-occupancy analysis; set it to the trace's scale (1 for raw MSR
	// traces).
	TraceDir string
}

// DefaultConfig returns the paper's evaluation setup at the given trace
// scale.
func DefaultConfig(scale int) Config {
	sc := sieve.DefaultCConfig()
	// Size the IMCT relative to the trace footprint so the aliasing rate —
	// the phenomenon the two-tier design exists to tame — matches the
	// paper's setting at any scale (their IMCT was heavily aliased; the MCT
	// did the precise filtering).
	sc.IMCTSize = 1 << 28 / scale
	if sc.IMCTSize < 1024 {
		sc.IMCTSize = 1024
	}
	return Config{
		Workload:   workload.Default(scale),
		CacheGB:    16,
		BigCacheGB: 32,
		TopFrac:    0.01,
		DThreshold: sieved.DefaultThreshold,
		SieveC:     sc,
		RandP:      0.01,
		Seed:       7,
	}
}

// CacheBlocks converts an unscaled cache size in GB to scaled 512-byte
// frames.
func (c *Config) CacheBlocks(gb float64) int {
	blocks := gb * (1 << 30) / block.Size / float64(c.Workload.Scale)
	if blocks < 8 {
		blocks = 8
	}
	return int(blocks)
}

// Policy indices into Results.Policies.
const (
	PIdeal = iota
	PSieveD
	PSieveC
	PRandBlkD
	PRandC
	PAOD
	PAOD32
	PWMNA
	PWMNA32
	numPolicies
)

// DayInfo captures the per-day trace analyses behind Figures 2 and 3.
type DayInfo struct {
	Day      int
	Requests int
	Accesses int64
	Unique   int
	// Top1Share is the fraction of accesses to the day's top-1% blocks
	// (the ideal capture rate, Figure 2's knee).
	Top1Share float64
	// Once, LE4 and LE10 are the fractions of blocks with 1, ≤4 and ≤10
	// accesses (O1).
	Once, LE4, LE10 float64
	// Bins is the access-count distribution over percentile bins (Fig 2a).
	Bins []analysis.Bin
	// CDF is the cumulative popularity curve (Fig 2b/2c).
	CDF []analysis.CDFPoint
	// Composition is each server's share of the ensemble top-1% (Fig 3d).
	Composition []float64
	// OverlapWithPrev is the fraction of today's top-1% already in
	// yesterday's (O2's successive-day overlap).
	OverlapWithPrev float64
}

// SkewCurves holds the Figure 3(a–c) skew-variation CDFs.
type SkewCurves struct {
	// PrxyDay2 vs Src1Day2: server-to-server variation (Fig 3a).
	PrxyDay2, Src1Day2 []analysis.CDFPoint
	// WebVol0Day2 vs WebVol1Day2: volume-to-volume variation (Fig 3b).
	WebVol0Day2, WebVol1Day2 []analysis.CDFPoint
	// StgDay3 vs StgDay5: time variation (Fig 3c).
	StgDay3, StgDay5 []analysis.CDFPoint
}

// Results is the complete outcome of one experiment run.
type Results struct {
	Config Config
	Days   int
	// ServerNames is the roster in ID order.
	ServerNames []string
	// Policies holds one simulation result per policy index.
	Policies [numPolicies]*sim.Result
	// DayInfo holds per-day trace analyses.
	DayInfo []DayInfo
	// Skew holds the Figure 3(a–c) curves.
	Skew SkewCurves
	// PerServerElastic / PerServerStatic / EnsembleShared are the §5.3
	// configurations.
	PerServerElastic []sim.PerServerStats
	PerServerStatic  []sim.PerServerStats
	EnsembleShared   []sim.PerServerStats
	// TraceStats summarizes the generated trace (Table 1).
	TraceStats *trace.Stats
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
}

// traceSource is what Run needs from a trace: day access plus a
// whole-trace reader for the summary statistics.
type traceSource interface {
	sim.Trace
	Reader() trace.Reader
}

// Run executes the full evaluation over the synthetic workload or, when
// cfg.TraceDir is set, over an on-disk day-split trace.
func Run(cfg Config) (*Results, error) {
	start := time.Now()
	var (
		src   traceSource
		names *trace.NameTable
	)
	if cfg.TraceDir != "" {
		dd, err := trace.OpenDayDir(cfg.TraceDir)
		if err != nil {
			return nil, err
		}
		src = dd
	} else {
		gen, err := workload.New(cfg.Workload)
		if err != nil {
			return nil, err
		}
		src = gen
		names = gen.Names()
	}
	days := src.Days()
	spill := cfg.SpillDir
	if spill == "" {
		dir, err := os.MkdirTemp("", "sievestore-d-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		spill = dir
	}
	logger, err := sieved.NewLogger(spill, sieved.DefaultPartitions)
	if err != nil {
		return nil, err
	}
	defer logger.Close()

	res := &Results{Config: cfg, Days: days}
	small := cfg.CacheBlocks(cfg.CacheGB)
	big := cfg.CacheBlocks(cfg.BigCacheGB)

	sieveC, err := sieve.NewC(cfg.SieveC)
	if err != nil {
		return nil, err
	}

	// Continuous runners.
	contRunners := []*sim.Continuous{
		sim.NewContinuous(small, sieveC),
		sim.NewContinuous(small, sieve.NewRandC(cfg.RandP, cfg.Seed)),
		sim.NewContinuous(small, sieve.AOD{}),
		sim.NewContinuous(big, sieve.AOD{}),
		sim.NewContinuous(small, sieve.WMNA{}),
		sim.NewContinuous(big, sieve.WMNA{}),
	}
	contIndex := []int{PSieveC, PRandC, PAOD, PAOD32, PWMNA, PWMNA32}

	// Discrete runners with day-fed sets. The ideal sieve's top-1% fits the
	// 16 GB-equivalent cache with room to spare (§2).
	var idealSet, dSet, randSet []block.Key
	ideal := sim.NewDiscrete("Ideal", small, func(int) []block.Key { return idealSet })
	sieveD := sim.NewDiscrete("SieveStore-D", small, func(int) []block.Key { return dSet })
	randD := sim.NewDiscrete("RandSieve-BlkD", small, func(int) []block.Key { return randSet })
	rng := rand.New(rand.NewSource(cfg.Seed))

	// servers grows as server IDs are discovered (known up front for the
	// synthetic roster; discovered from the data for TraceDir runs).
	servers := 0
	if cfg.TraceDir == "" {
		servers = len(cfg.Workload.Servers)
	}
	var prevTop, prevRandSample, prevDSet []block.Key

	for d := 0; d < days; d++ {
		reqs, err := src.Day(d)
		if err != nil {
			return nil, err
		}
		// --- Analyses for Figures 2 and 3 (plus the §5.3 counters). ---
		counter := analysis.NewCounter()
		perServer := make([]*analysis.Counter, servers)
		for s := range perServer {
			perServer[s] = analysis.NewCounter()
		}
		for i := range reqs {
			counter.AddRequest(&reqs[i])
			for sID := reqs[i].Server; sID >= len(perServer); {
				perServer = append(perServer, analysis.NewCounter())
			}
			perServer[reqs[i].Server].AddRequest(&reqs[i])
		}
		servers = max(servers, len(perServer))
		top1 := counter.TopFraction(cfg.TopFrac)
		info := DayInfo{
			Day:         d,
			Requests:    len(reqs),
			Accesses:    counter.Total(),
			Unique:      counter.Unique(),
			Top1Share:   counter.TopShare(cfg.TopFrac),
			Once:        counter.CountLE(1),
			LE4:         counter.CountLE(4),
			LE10:        counter.CountLE(10),
			Bins:        counter.Bins(200),
			CDF:         counter.CDF(200),
			Composition: analysis.ShareByServer(top1, servers),
			// (padded to the final server count after the day loop)
		}
		if d > 0 {
			info.OverlapWithPrev = analysis.Overlap(prevTop, top1)
		}
		res.DayInfo = append(res.DayInfo, info)
		if names != nil {
			res.collectSkewCurves(names, d, reqs)
		}

		// §5.3 configurations (computed from the same counters).
		res.PerServerElastic = append(res.PerServerElastic,
			sim.PerServerTopFraction([][]*analysis.Counter{perServer}, cfg.TopFrac)...)
		res.PerServerStatic = append(res.PerServerStatic,
			sim.PerServerStatic([][]*analysis.Counter{perServer}, small/max(servers, 1))...)
		res.EnsembleShared = append(res.EnsembleShared,
			sim.EnsembleStatic([]*analysis.Counter{counter}, small)...)
		res.PerServerElastic[d].Day = d
		res.PerServerStatic[d].Day = d
		res.EnsembleShared[d].Day = d

		// --- Simulations in lockstep. ---
		idealSet = top1
		dSet = prevDSet
		randSet = prevRandSample
		for i := range reqs {
			req := &reqs[i]
			for _, c := range contRunners {
				c.Process(req)
			}
			if err := ideal.Process(req); err != nil {
				return nil, err
			}
			if err := sieveD.Process(req); err != nil {
				return nil, err
			}
			if err := randD.Process(req); err != nil {
				return nil, err
			}
			if err := logger.LogRequest(req); err != nil {
				return nil, err
			}
		}
		// End of epoch: select SieveStore-D's next-day set and the random
		// discrete sample.
		next, err := logger.EndEpoch(cfg.DThreshold)
		if err != nil {
			return nil, err
		}
		prevDSet = next
		prevRandSample = sim.RandomSample(rng, counter, cfg.RandP)
		prevTop = top1
	}

	// Fill the server roster and pad early days' composition vectors to the
	// final server count (servers appearing later had zero share earlier).
	if names != nil {
		res.ServerNames = cfg.Workload.ServerNames()
	} else {
		for sID := 0; sID < servers; sID++ {
			res.ServerNames = append(res.ServerNames, fmt.Sprintf("server%d", sID))
		}
	}
	for i := range res.DayInfo {
		for len(res.DayInfo[i].Composition) < servers {
			res.DayInfo[i].Composition = append(res.DayInfo[i].Composition, 0)
		}
	}

	totalMinutes := days * 24 * 60
	res.Policies[PIdeal] = ideal.Result(totalMinutes)
	res.Policies[PSieveD] = sieveD.Result(totalMinutes)
	res.Policies[PRandBlkD] = randD.Result(totalMinutes)
	for i, c := range contRunners {
		res.Policies[contIndex[i]] = c.Result(totalMinutes)
	}
	res.Policies[PAOD32].Name = "AOD-32GB"
	res.Policies[PWMNA32].Name = "WMNA-32GB"

	st, err := trace.Summarize(src.Reader())
	if err != nil {
		return nil, err
	}
	res.TraceStats = st
	res.Elapsed = time.Since(start)
	return res, nil
}

// collectSkewCurves extracts the Figure 3(a–c) scoped CDFs on the days the
// paper plots. It requires server names (synthetic runs only).
func (r *Results) collectSkewCurves(names *trace.NameTable, day int, reqs []block.Request) {
	scoped := func(server, volume int) []analysis.CDFPoint {
		c := analysis.NewCounter()
		for i := range reqs {
			if reqs[i].Server != server {
				continue
			}
			if volume >= 0 && reqs[i].Volume != volume {
				continue
			}
			c.AddRequest(&reqs[i])
		}
		return c.CDF(100)
	}
	lookup := func(name string) int {
		id, ok := names.Lookup(name)
		if !ok {
			return -1
		}
		return id
	}
	switch day {
	case 2:
		if id := lookup("prxy"); id >= 0 {
			r.Skew.PrxyDay2 = scoped(id, -1)
		}
		if id := lookup("src1"); id >= 0 {
			r.Skew.Src1Day2 = scoped(id, -1)
		}
		if id := lookup("web"); id >= 0 {
			r.Skew.WebVol0Day2 = scoped(id, 0)
			r.Skew.WebVol1Day2 = scoped(id, 1)
		}
	case 3:
		if id := lookup("stg"); id >= 0 {
			r.Skew.StgDay3 = scoped(id, -1)
		}
	case 5:
		if id := lookup("stg"); id >= 0 {
			r.Skew.StgDay5 = scoped(id, -1)
		}
	}
}

// Device returns the cost-model SSD spec.
func Device() ssd.DeviceSpec { return ssd.IntelX25E() }

// PolicyName returns the display name for a policy index.
func PolicyName(i int) string {
	switch i {
	case PIdeal:
		return "Ideal"
	case PSieveD:
		return "SieveStore-D"
	case PSieveC:
		return "SieveStore-C"
	case PRandBlkD:
		return "RandSieve-BlkD"
	case PRandC:
		return "RandSieve-C"
	case PAOD:
		return "AOD-16GB"
	case PAOD32:
		return "AOD-32GB"
	case PWMNA:
		return "WMNA-16GB"
	case PWMNA32:
		return "WMNA-32GB"
	}
	return fmt.Sprintf("policy-%d", i)
}
