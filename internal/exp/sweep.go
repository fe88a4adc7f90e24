package exp

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/sieve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The sweep points: SieveStore-D thresholds, SieveStore-C windows W and
// subwindow counts k, and SeedSweep's trace seeds.
var (
	sweepThresholds = []int64{4, 6, 8, 10, 14, 20}
	sweepWindows    = []time.Duration{2 * time.Hour, 4 * time.Hour, 8 * time.Hour, 16 * time.Hour}
	sweepSubwindows = []int{1, 2, 4, 8}
	sweepSeeds      = []int64{1, 2, 3}
)

// oracleDay is the trace day the §3.1 oracle experiment replays.
const oracleDay = 2

// SweepResults holds every row Sweep produces. Quadrants run I to IV, and
// SingleTier and Replacement list SieveStore-C first: the order their
// renderers read.
type SweepResults struct {
	Quadrants   []QuadrantResult
	DThreshold  []DThresholdRow
	CWindow     []CWindowRow
	SingleTier  []AblationRow
	Subwindows  []SubwindowRow
	Replacement []ReplacementRow
	Oracle      []OracleRow
	// OracleSieveC is SieveStore-C's measured oracle day.
	OracleSieveC sim.DayStats
}

// Sweep simulates each distinct configuration behind the sweep rows once,
// in one pass over cfg's trace. A sweep point equal to the default
// SieveStore-C (W = 8 h, k = 4) reads the default's run, as do the
// two-tier ablation row, replacement row 0, quadrant I and the oracle
// comparison; LRU/WMNA serves both replacement row 1 and quadrant II.
func Sweep(cfg Config) (*SweepResults, error) {
	days := cfg.Workload.Days
	if days <= oracleDay {
		return nil, fmt.Errorf("exp: sweep needs more than %d days, got %d", oracleDay, days)
	}
	gen, err := workload.New(cfg.Workload)
	if err != nil {
		return nil, err
	}
	capacity := cfg.CacheBlocks(CacheGB)
	runs, err := newSweepRuns(&cfg, capacity)
	if err != nil {
		return nil, err
	}
	counters, stream, err := runs.replay(gen, days)
	if err != nil {
		return nil, err
	}
	minutes := days * 24 * 60
	res := runs.sensitivity(minutes)
	res.DThreshold = dThresholdRows(counters, capacity)
	res.Quadrants = runs.quadrants(cfg.Workload.Scale, minutes)
	res.Oracle = oracleRows(stream, capacity)
	res.OracleSieveC = runs.base.Result(minutes).Days[oracleDay]
	return res, nil
}

// sweepRuns are the simulations behind the sweep rows, each distinct
// configuration once.
type sweepRuns struct {
	all        []*sim.Continuous // every continuous run, each once
	base       *sim.Continuous
	windows    []*sim.Continuous
	subwindows []*sim.Continuous
	singleTier *sim.Continuous
	// unsieved is §3.1's replacement lineup: the unsieved cache under LRU,
	// CLOCK, FIFO and the promotion-free SIEVE and S3-FIFO engines.
	unsieved []*sim.Continuous
	// perWMNA and perC are quadrants III and IV.
	perWMNA, perC *sim.PerServer
}

// newSweepRuns builds every sweep simulation over caches of capacity
// blocks.
func newSweepRuns(cfg *Config, capacity int) (*sweepRuns, error) {
	s := &sweepRuns{}
	add := func(c *cache.Cache, p sieve.Policy) *sim.Continuous {
		s.all = append(s.all, sim.NewContinuous(c, p))
		return s.all[len(s.all)-1]
	}
	sieveC := map[sieve.CConfig]*sim.Continuous{}
	runC := func(set func(*sieve.CConfig)) (*sim.Continuous, error) {
		sc := cfg.SieveC()
		set(&sc)
		if c, ok := sieveC[sc]; ok {
			return c, nil
		}
		p, err := sieve.NewC(sc)
		if err != nil {
			return nil, err
		}
		sieveC[sc] = add(cache.New(capacity), p)
		return sieveC[sc], nil
	}
	var err error
	if s.base, err = runC(func(*sieve.CConfig) {}); err != nil {
		return nil, err
	}
	s.windows = make([]*sim.Continuous, len(sweepWindows))
	for i, w := range sweepWindows {
		if s.windows[i], err = runC(func(sc *sieve.CConfig) { sc.Window = w }); err != nil {
			return nil, err
		}
	}
	s.subwindows = make([]*sim.Continuous, len(sweepSubwindows))
	for i, k := range sweepSubwindows {
		if s.subwindows[i], err = runC(func(sc *sieve.CConfig) { sc.Subwindows = k }); err != nil {
			return nil, err
		}
	}
	single, err := sieve.NewSingleTier(cfg.SieveC())
	if err != nil {
		return nil, err
	}
	s.singleTier = add(cache.New(capacity), single)
	s.unsieved = []*sim.Continuous{
		add(cache.New(capacity), sieve.WMNA{}),
		add(cache.NewClock(capacity), sieve.WMNA{}),
		add(cache.NewFIFO(capacity), sieve.WMNA{}),
		add(cache.NewSieve(capacity), sieve.WMNA{}),
		add(cache.NewS3FIFO(capacity), sieve.WMNA{}),
	}
	// Quadrants III and IV: one private cache per server, each with an even
	// share of capacity and, for SieveStore-C, of the IMCT (never under 256
	// slots).
	servers := len(cfg.Workload.Servers)
	sc := cfg.SieveC()
	sc.IMCTSize = max(sc.IMCTSize/servers, 256)
	if s.perWMNA, err = sim.NewPerServer(servers, capacity, func(int) (sieve.Policy, error) { return sieve.WMNA{}, nil }); err != nil {
		return nil, err
	}
	if s.perC, err = sim.NewPerServer(servers, capacity, func(int) (sieve.Policy, error) { return sieve.NewC(sc) }); err != nil {
		return nil, err
	}
	return s, nil
}

// replay runs every simulation over the trace's days and returns each
// day's access counter and the oracle day's block stream.
func (s *sweepRuns) replay(tr sim.Trace, days int) ([]*analysis.Counter, []block.Key, error) {
	counters := make([]*analysis.Counter, days)
	var stream []block.Key
	var buf []block.Access
	// The simulations are independent: each takes the day on its own
	// goroutine, and an early return waits for them.
	var wg sync.WaitGroup
	defer wg.Wait()
	for d := range counters {
		reqs, err := tr.Day(d)
		if err != nil {
			return nil, nil, err
		}
		for _, c := range s.all {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range reqs {
					c.Process(&reqs[i])
				}
			}()
		}
		counters[d] = analysis.NewCounter()
		for i := range reqs {
			req := &reqs[i]
			counters[d].AddRequest(req)
			for _, p := range []*sim.PerServer{s.perWMNA, s.perC} {
				if err := p.Process(req); err != nil {
					return nil, nil, err
				}
			}
			if d == oracleDay {
				buf = trace.Expand(buf[:0], req)
				for _, a := range buf {
					stream = append(stream, a.Key)
				}
			}
		}
		wg.Wait()
	}
	return counters, stream, nil
}

// sensitivity reads the window, subwindow, single-tier and replacement
// rows off the runs.
func (s *sweepRuns) sensitivity(minutes int) *SweepResults {
	row := func(c *sim.Continuous) ReplacementRow {
		r := c.Result(minutes)
		return ReplacementRow{Name: r.Name, HitRatio: r.Total().HitRatio(), AllocWrites: r.Total().AllocWrites}
	}
	res := &SweepResults{SingleTier: []AblationRow{AblationRow(row(s.base)), AblationRow(row(s.singleTier))}}
	for i, c := range s.windows {
		r := row(c)
		res.CWindow = append(res.CWindow, CWindowRow{Window: sweepWindows[i], HitRatio: r.HitRatio, Allocs: r.AllocWrites})
	}
	for i, c := range s.subwindows {
		r := row(c)
		res.Subwindows = append(res.Subwindows, SubwindowRow{Subwindows: sweepSubwindows[i], HitRatio: r.HitRatio, AllocWrites: r.AllocWrites})
	}
	for _, c := range append([]*sim.Continuous{s.base}, s.unsieved...) {
		res.Replacement = append(res.Replacement, row(c))
	}
	return res
}

// oracleRows replays the oracle day's block stream under the clairvoyant
// MIN replacement, allocating on demand and selectively (§3.1).
func oracleRows(stream []block.Key, capacity int) []OracleRow {
	aod := sieve.BeladyAOD(stream, capacity)
	sel := sieve.BeladySelective(stream, capacity)
	n := int64(len(stream))
	return []OracleRow{
		{Name: "MIN + allocate-on-demand", Hits: int64(aod.Hits), AllocWrites: int64(aod.AllocWrites), Accesses: n},
		{Name: "MIN + selective-allocation", Hits: int64(sel.Hits), AllocWrites: int64(sel.AllocWrites), Accesses: n},
	}
}

// dThresholdRows sweeps SieveStore-D's epoch threshold. The discrete model
// makes this computable from per-day counters alone: day d's hits under
// threshold t are the day-d counts of blocks whose day-(d-1) count reached
// t. The hit ratio excludes the bootstrap day, which no threshold can help.
func dThresholdRows(counters []*analysis.Counter, capacity int) []DThresholdRow {
	var totalAccesses int64
	for _, c := range counters[1:] {
		totalAccesses += c.Total()
	}
	rows := make([]DThresholdRow, 0, len(sweepThresholds))
	for _, t := range sweepThresholds {
		var hits, moves int64
		var prev map[block.Key]bool
		for d, c := range counters {
			// TopFraction(1.0) is sorted hottest-first, so truncating at
			// the cache capacity keeps the hottest qualifying blocks —
			// exactly what the batch allocator does.
			sel := make(map[block.Key]bool)
			for _, k := range c.TopFraction(1.0) {
				if c.Count(k) < t || len(sel) >= capacity {
					break
				}
				sel[k] = true
			}
			if d > 0 {
				for k := range prev {
					hits += c.Count(k)
				}
			}
			for k := range sel {
				if !prev[k] {
					moves++
				}
			}
			prev = sel
		}
		ratio := 0.0
		if totalAccesses > 0 {
			ratio = float64(hits) / float64(totalAccesses)
		}
		rows = append(rows, DThresholdRow{Threshold: t, HitRatio: ratio, Moves: moves})
	}
	return rows
}
