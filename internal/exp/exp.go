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
	"repro/internal/cache"
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
	// TraceDir, when set, replays a day-split trace directory (see
	// cmd/trace -outformat daydir) instead of generating the synthetic
	// workload — the path for running the evaluation on real MSR traces.
	// Workload.Scale is still used to size the cache and to scale the
	// drive-occupancy analysis; set it to the trace's scale (1 for raw MSR
	// traces).
	TraceDir string
}

// The evaluation's fixed settings (§5).
const (
	// CacheGB is the SieveStore cache size before scaling (16 GB in the
	// paper); BigCacheGB is the enlarged unsieved cache (32 GB).
	CacheGB    float64 = 16
	BigCacheGB float64 = 32
	// topFrac is the ideal sieve's popularity cut (top 1%).
	topFrac = 0.01
	// dThreshold is SieveStore-D's epoch access-count threshold (10).
	dThreshold = sieved.DefaultThreshold
	// randP is the random sieves' allocation fraction (1%), and randSeed
	// drives them.
	randP    = 0.01
	randSeed = 7
)

// DefaultConfig returns the paper's evaluation setup at the given trace
// scale.
func DefaultConfig(scale int) Config {
	return Config{Workload: workload.Default(scale)}
}

// SieveC returns SieveStore-C's configuration at the trace's scale. The
// IMCT is sized relative to the trace footprint so the aliasing rate — the
// phenomenon the two-tier design exists to tame — matches the paper's
// setting at any scale (their IMCT was heavily aliased; the MCT did the
// precise filtering).
func (c *Config) SieveC() sieve.CConfig {
	sc := sieve.DefaultCConfig()
	sc.IMCTSize = max(1<<28/c.Workload.Scale, 1024)
	return sc
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
	src, names, err := openTrace(cfg)
	if err != nil {
		return nil, err
	}
	spill, err := os.MkdirTemp("", "sievestore-d-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spill)
	r, err := newRun(cfg, spill)
	if err != nil {
		return nil, err
	}
	defer r.logger.Close()
	r.names = names
	for d := 0; d < src.Days(); d++ {
		reqs, err := src.Day(d)
		if err != nil {
			return nil, err
		}
		if err := r.day(d, reqs); err != nil {
			return nil, err
		}
	}
	res := r.finish(src.Days())
	if res.TraceStats, err = trace.Summarize(src.Reader()); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// openTrace opens cfg's trace: the day directory when TraceDir is set,
// else the generator, whose name table the skew curves need.
func openTrace(cfg Config) (traceSource, *trace.NameTable, error) {
	if cfg.TraceDir != "" {
		dd, err := trace.OpenDayDir(cfg.TraceDir)
		if err != nil {
			return nil, nil, err
		}
		return dd, nil, nil
	}
	gen, err := workload.New(cfg.Workload)
	if err != nil {
		return nil, nil, err
	}
	return gen, gen.Names(), nil
}

// The policies Run simulates continuously and by discrete epochs, in the
// order of run.cont and run.disc.
var (
	contPolicies = [...]int{PSieveC, PRandC, PAOD, PAOD32, PWMNA, PWMNA32}
	discPolicies = [...]int{PIdeal, PSieveD, PRandBlkD}
)

// run is Run's state between trace days: the results so far, every
// policy's simulator and SieveStore-D's access log.
type run struct {
	res *Results
	// names is the synthetic roster's name table; nil for TraceDir runs,
	// which get no skew curves.
	names *trace.NameTable
	// servers grows as server IDs are discovered (known up front for the
	// synthetic roster; discovered from the data for TraceDir runs).
	servers int
	small   int
	cont    []*sim.Continuous
	disc    []*sim.Discrete
	// sets are the discrete policies' resident sets today; nextD and
	// nextRand are SieveStore-D's and RandSieve-BlkD's for tomorrow.
	sets            [len(discPolicies)][]block.Key
	nextD, nextRand []block.Key
	prevTop         []block.Key
	logger          *sieved.Logger
	rng             *rand.Rand
}

// newRun builds every policy's simulator; spill hosts SieveStore-D's
// partition logs.
func newRun(cfg Config, spill string) (*run, error) {
	sieveC, err := sieve.NewC(cfg.SieveC())
	if err != nil {
		return nil, err
	}
	logger, err := sieved.NewLogger(spill, sieved.DefaultPartitions)
	if err != nil {
		return nil, err
	}
	small, big := cfg.CacheBlocks(CacheGB), cfg.CacheBlocks(BigCacheGB)
	r := &run{
		res:    &Results{Config: cfg},
		small:  small,
		logger: logger,
		rng:    rand.New(rand.NewSource(randSeed)),
		cont: []*sim.Continuous{
			sim.NewContinuous(cache.New(small), sieveC),
			sim.NewContinuous(cache.New(small), sieve.NewRandC(randP, randSeed)),
			sim.NewContinuous(cache.New(small), sieve.AOD{}),
			sim.NewContinuous(cache.New(big), sieve.AOD{}),
			sim.NewContinuous(cache.New(small), sieve.WMNA{}),
			sim.NewContinuous(cache.New(big), sieve.WMNA{}),
		},
	}
	// The discrete policies read their day's set from r.sets. The ideal
	// sieve's top-1% fits the 16 GB-equivalent cache with room to spare.
	for i, p := range discPolicies {
		r.disc = append(r.disc, sim.NewDiscrete(PolicyName(p), small, func(int) []block.Key { return r.sets[i] }))
	}
	if cfg.TraceDir == "" {
		r.servers = len(cfg.Workload.Servers)
	}
	return r, nil
}

// day runs trace day d through the analyses and, in lockstep, through
// every policy. The ideal sieve holds the day's own top 1% (an oracle);
// the day then ends SieveStore-D's epoch, which selects the next day's
// set, and RandSieve-BlkD samples its next-day set from the day's blocks.
func (r *run) day(d int, reqs []block.Request) error {
	counter, top1 := r.analyse(d, reqs)
	r.sets = [len(discPolicies)][]block.Key{top1, r.nextD, r.nextRand}
	for i := range reqs {
		req := &reqs[i]
		for _, c := range r.cont {
			c.Process(req)
		}
		for _, c := range r.disc {
			if err := c.Process(req); err != nil {
				return err
			}
		}
		if err := r.logger.LogRequest(req); err != nil {
			return err
		}
	}
	var err error
	if r.nextD, err = r.logger.EndEpoch(dThreshold); err != nil {
		return err
	}
	r.nextRand = sim.RandomSample(r.rng, counter, randP)
	return nil
}

// analyse records day d's trace analyses (Figures 2 and 3) and its §5.3
// rows, and returns the day's counter and top-1% set.
func (r *run) analyse(d int, reqs []block.Request) (*analysis.Counter, []block.Key) {
	counter := analysis.NewCounter()
	perServer := make([]*analysis.Counter, r.servers)
	for s := range perServer {
		perServer[s] = analysis.NewCounter()
	}
	for i := range reqs {
		counter.AddRequest(&reqs[i])
		for len(perServer) <= reqs[i].Server {
			perServer = append(perServer, analysis.NewCounter())
		}
		perServer[reqs[i].Server].AddRequest(&reqs[i])
	}
	r.servers = len(perServer)
	top1 := counter.TopFraction(topFrac)
	info := DayInfo{
		Day:         d,
		Requests:    len(reqs),
		Accesses:    counter.Total(),
		Unique:      counter.Unique(),
		Top1Share:   counter.TopShare(topFrac),
		Once:        counter.CountLE(1),
		LE4:         counter.CountLE(4),
		LE10:        counter.CountLE(10),
		Bins:        counter.Bins(200),
		CDF:         counter.CDF(200),
		Composition: analysis.ShareByServer(top1, r.servers),
		// (padded to the final server count by finish)
	}
	if d > 0 {
		info.OverlapWithPrev = analysis.Overlap(r.prevTop, top1)
	}
	r.prevTop = top1
	res := r.res
	res.DayInfo = append(res.DayInfo, info)
	if r.names != nil {
		res.collectSkewCurves(r.names, d, reqs)
	}
	// §5.3 configurations, from the same counters.
	res.PerServerElastic = append(res.PerServerElastic,
		sim.PerServerTopFraction([][]*analysis.Counter{perServer}, topFrac)...)
	res.PerServerStatic = append(res.PerServerStatic,
		sim.PerServerStatic([][]*analysis.Counter{perServer}, r.small/max(r.servers, 1))...)
	res.EnsembleShared = append(res.EnsembleShared,
		sim.EnsembleStatic([]*analysis.Counter{counter}, r.small)...)
	res.PerServerElastic[d].Day = d
	res.PerServerStatic[d].Day = d
	res.EnsembleShared[d].Day = d
	return counter, top1
}

// finish fills the server roster, pads early days' composition vectors to
// the final server count (servers appearing later had zero share earlier)
// and collects every policy's result over a trace of days.
func (r *run) finish(days int) *Results {
	res := r.res
	res.Days = days
	if r.names != nil {
		res.ServerNames = res.Config.Workload.ServerNames()
	} else {
		for s := 0; s < r.servers; s++ {
			res.ServerNames = append(res.ServerNames, fmt.Sprintf("server%d", s))
		}
	}
	for i := range res.DayInfo {
		for len(res.DayInfo[i].Composition) < r.servers {
			res.DayInfo[i].Composition = append(res.DayInfo[i].Composition, 0)
		}
	}
	minutes := days * 24 * 60
	for i, p := range discPolicies {
		res.Policies[p] = r.disc[i].Result(minutes)
	}
	for i, p := range contPolicies {
		res.Policies[p] = r.cont[i].Result(minutes)
	}
	res.Policies[PAOD32].Name = "AOD-32GB"
	res.Policies[PWMNA32].Name = "WMNA-32GB"
	return res
}

// collectSkewCurves extracts the Figure 3(a–c) scoped CDFs on the days the
// paper plots: each one server's (or, with volume ≥ 0, one volume's)
// popularity CDF. It requires server names (synthetic runs only).
func (r *Results) collectSkewCurves(names *trace.NameTable, day int, reqs []block.Request) {
	for _, sc := range []struct {
		day, volume int
		server      string
		curve       *[]analysis.CDFPoint
	}{
		{2, -1, "prxy", &r.Skew.PrxyDay2}, {2, -1, "src1", &r.Skew.Src1Day2},
		{2, 0, "web", &r.Skew.WebVol0Day2}, {2, 1, "web", &r.Skew.WebVol1Day2},
		{3, -1, "stg", &r.Skew.StgDay3}, {5, -1, "stg", &r.Skew.StgDay5},
	} {
		server, ok := names.Lookup(sc.server)
		if sc.day != day || !ok {
			continue
		}
		c := analysis.NewCounter()
		for i := range reqs {
			if reqs[i].Server == server && (sc.volume < 0 || reqs[i].Volume == sc.volume) {
				c.AddRequest(&reqs[i])
			}
		}
		*sc.curve = c.CDF(100)
	}
}

// Device returns the cost-model SSD spec.
func Device() ssd.DeviceSpec { return ssd.IntelX25E() }

// policyNames are the display names, by policy index.
var policyNames = [numPolicies]string{
	"Ideal", "SieveStore-D", "SieveStore-C", "RandSieve-BlkD", "RandSieve-C",
	"AOD-16GB", "AOD-32GB", "WMNA-16GB", "WMNA-32GB",
}

// PolicyName returns the display name for a policy index.
func PolicyName(i int) string {
	if i < 0 || i >= numPolicies {
		return fmt.Sprintf("policy-%d", i)
	}
	return policyNames[i]
}
