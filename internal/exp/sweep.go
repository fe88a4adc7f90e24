package exp

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/sieve"
	"repro/internal/sim"
	"repro/internal/ssd"
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
	capacity := cfg.CacheBlocks(cfg.CacheGB)
	var runs []*sim.Continuous
	add := func(tags cache.TagStore, p sieve.Policy) *sim.Continuous {
		runs = append(runs, sim.NewContinuousTags(tags, p))
		return runs[len(runs)-1]
	}
	sieveC := map[sieve.CConfig]*sim.Continuous{}
	runC := func(set func(*sieve.CConfig)) (*sim.Continuous, error) {
		sc := cfg.SieveC
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
	base, err := runC(func(*sieve.CConfig) {})
	if err != nil {
		return nil, err
	}
	windows := make([]*sim.Continuous, len(sweepWindows))
	for i, w := range sweepWindows {
		if windows[i], err = runC(func(sc *sieve.CConfig) { sc.Window = w }); err != nil {
			return nil, err
		}
	}
	subwindows := make([]*sim.Continuous, len(sweepSubwindows))
	for i, k := range sweepSubwindows {
		if subwindows[i], err = runC(func(sc *sieve.CConfig) { sc.Subwindows = k }); err != nil {
			return nil, err
		}
	}
	single, err := sieve.NewSingleTier(cfg.SieveC)
	if err != nil {
		return nil, err
	}
	singleTier := add(cache.New(capacity), single)
	// The §3.1 replacement lineup: the unsieved cache under LRU, CLOCK,
	// FIFO and the promotion-free SIEVE and S3-FIFO engines.
	unsieved := []*sim.Continuous{
		add(cache.New(capacity), sieve.WMNA{}),
		add(NewClock(capacity), sieve.WMNA{}),
		add(NewFIFO(capacity), sieve.WMNA{}),
		add(cache.NewSieve(capacity), sieve.WMNA{}),
		add(NewS3FIFO(capacity), sieve.WMNA{}),
	}
	servers := len(cfg.Workload.Servers)
	perWMNA, err := sim.NewPerServer(servers, capacity, func(int) (sieve.Policy, error) { return sieve.WMNA{}, nil })
	if err != nil {
		return nil, err
	}
	perC, err := sim.NewPerServer(servers, capacity, cfg.PerServerSieveC())
	if err != nil {
		return nil, err
	}

	counters := make([]*analysis.Counter, days)
	var stream []block.Key
	var buf []block.Access
	// The simulations are independent: each takes the day on its own
	// goroutine, and an early return waits for them.
	var wg sync.WaitGroup
	defer wg.Wait()
	for d := range counters {
		reqs, err := gen.Day(d)
		if err != nil {
			return nil, err
		}
		for _, c := range runs {
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
			for _, p := range []*sim.PerServer{perWMNA, perC} {
				if err := p.Process(req); err != nil {
					return nil, err
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

	minutes := days * 24 * 60
	// row reads one run's name, hit ratio and allocation-writes.
	row := func(c *sim.Continuous) ReplacementRow {
		r := c.Result(minutes)
		return ReplacementRow{Name: r.Name, HitRatio: r.Total().HitRatio(), AllocWrites: r.Total().AllocWrites}
	}
	res := &SweepResults{
		DThreshold: dThresholdRows(counters, capacity),
		SingleTier: []AblationRow{AblationRow(row(base)), AblationRow(row(singleTier))},
	}
	for i, c := range windows {
		r := row(c)
		res.CWindow = append(res.CWindow, CWindowRow{Window: sweepWindows[i], HitRatio: r.HitRatio, Allocs: r.AllocWrites})
	}
	for i, c := range subwindows {
		r := row(c)
		res.Subwindows = append(res.Subwindows, SubwindowRow{Subwindows: sweepSubwindows[i], HitRatio: r.HitRatio, AllocWrites: r.AllocWrites})
	}
	for _, c := range append([]*sim.Continuous{base}, unsieved...) {
		res.Replacement = append(res.Replacement, row(c))
	}

	spec := Device()
	quadrant := func(q, name string, r *sim.Result, drives int) QuadrantResult {
		t := r.Total()
		return QuadrantResult{Quadrant: q, Name: name, HitRatio: t.HitRatio(), AllocWrites: t.AllocWrites, Drives: drives}
	}
	ensemble := func(q, name string, c *sim.Continuous) QuadrantResult {
		r := c.Result(minutes)
		loads := metrics.ScaleLoads(r.Minutes, float64(cfg.Workload.Scale))
		return quadrant(q, name, r, ssd.DrivesAtCoverage(ssd.DrivesNeeded(&spec, loads), 0.999))
	}
	perServer := func(q, name string, p *sim.PerServer) QuadrantResult {
		combined, each := p.Result(minutes)
		return quadrant(q, name, combined, cfg.PerServerDrives(each))
	}
	res.Quadrants = []QuadrantResult{
		ensemble("I", "SieveStore-C (sieved, ensemble)", base),
		ensemble("II", "WMNA (unsieved, ensemble)", unsieved[0]),
		perServer("III", "WMNA (unsieved, per-server)", perWMNA),
		perServer("IV", "SieveStore-C (sieved, per-server)", perC),
	}

	aod := sieve.BeladyAOD(stream, capacity)
	sel := sieve.BeladySelective(stream, capacity)
	n := int64(len(stream))
	res.Oracle = []OracleRow{
		{Name: "MIN + allocate-on-demand", Hits: int64(aod.Hits), AllocWrites: int64(aod.AllocWrites), Accesses: n},
		{Name: "MIN + selective-allocation", Hits: int64(sel.Hits), AllocWrites: int64(sel.AllocWrites), Accesses: n},
	}
	res.OracleSieveC = base.Result(minutes).Days[oracleDay]
	return res, nil
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
