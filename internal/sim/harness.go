package sim

import (
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/block"
	"repro/internal/sieve"
	"repro/internal/sieved"
)

// Trace is a day-addressable request trace (satisfied by
// workload.Generator and by pre-split trace files).
type Trace interface {
	// Days returns the number of calendar days.
	Days() int
	// Day returns day d's requests in time order.
	Day(d int) ([]block.Request, error)
}

// DayCounters builds a per-day access counter for the whole ensemble.
func DayCounters(tr Trace) ([]*analysis.Counter, error) {
	out := make([]*analysis.Counter, tr.Days())
	for d := range out {
		reqs, err := tr.Day(d)
		if err != nil {
			return nil, err
		}
		c := analysis.NewCounter()
		for i := range reqs {
			c.AddRequest(&reqs[i])
		}
		out[d] = c
	}
	return out, nil
}

// TopSets returns each day's most-popular `frac` of blocks, hottest first
// (the per-day ideal sieve's resident sets).
func TopSets(counters []*analysis.Counter, frac float64) [][]block.Key {
	out := make([][]block.Key, len(counters))
	for d, c := range counters {
		out[d] = c.TopFraction(frac)
	}
	return out
}

// eachRequest calls fn on every request of tr in order, day by day.
func eachRequest(tr Trace, fn func(*block.Request) error) error {
	for d := 0; d < tr.Days(); d++ {
		reqs, err := tr.Day(d)
		if err != nil {
			return err
		}
		for i := range reqs {
			if err := fn(&reqs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunContinuous simulates a continuous policy over the whole trace.
func RunContinuous(tr Trace, capacityBlocks int, policy sieve.Policy) (*Result, error) {
	c := NewContinuous(capacityBlocks, policy)
	if err := eachRequest(tr, func(req *block.Request) error { c.Process(req); return nil }); err != nil {
		return nil, err
	}
	return c.Result(tr.Days() * 24 * 60), nil
}

// RunDiscreteSets simulates a discrete-epoch cache whose day-d resident set
// is sets[d] (missing days get an empty set).
func RunDiscreteSets(name string, tr Trace, capacityBlocks int, sets [][]block.Key) (*Result, error) {
	d := NewDiscrete(name, capacityBlocks, func(day int) []block.Key {
		if day < len(sets) {
			return sets[day]
		}
		return nil
	})
	if err := eachRequest(tr, d.Process); err != nil {
		return nil, err
	}
	return d.Result(tr.Days() * 24 * 60), nil
}

// RunIdeal simulates the paper's ideal sieve: the top `frac` most popular
// blocks of each day are resident throughout that same day (an oracle; the
// left-most bar of Figure 5).
func RunIdeal(tr Trace, counters []*analysis.Counter, capacityBlocks int, frac float64) (*Result, error) {
	return RunDiscreteSets("Ideal", tr, capacityBlocks, TopSets(counters, frac))
}

// RunSieveStoreD simulates SieveStore-D (§3.2): day d's accesses are logged
// through the offline per-key-reduction pipeline; blocks whose day-d count
// reaches `threshold` become day d+1's resident set. Day 0 runs with an
// empty cache (the bootstrap day of Figure 5). dir hosts the spill files.
func RunSieveStoreD(tr Trace, capacityBlocks int, threshold int64, dir string) (*Result, error) {
	logger, err := sieved.NewLogger(dir, sieved.DefaultPartitions)
	if err != nil {
		return nil, err
	}
	defer logger.Close()
	sets := make([][]block.Key, tr.Days())
	d := NewDiscrete("SieveStore-D", capacityBlocks, func(day int) []block.Key {
		return sets[day]
	})
	for day := 0; day < tr.Days(); day++ {
		reqs, err := tr.Day(day)
		if err != nil {
			return nil, err
		}
		for i := range reqs {
			if err := d.Process(&reqs[i]); err != nil {
				return nil, err
			}
			if err := logger.LogRequest(&reqs[i]); err != nil {
				return nil, err
			}
		}
		if day+1 < tr.Days() {
			set, err := logger.EndEpoch(threshold)
			if err != nil {
				return nil, err
			}
			sets[day+1] = set
		}
	}
	return d.Result(tr.Days() * 24 * 60), nil
}

// RunRandBlkD simulates RandSieve-BlkD (Figure 5's random discrete sieve):
// a uniformly random `frac` of the blocks accessed on day d is
// batch-allocated for day d+1.
func RunRandBlkD(tr Trace, counters []*analysis.Counter, capacityBlocks int, frac float64, seed int64) (*Result, error) {
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]block.Key, tr.Days())
	for d := 1; d < tr.Days(); d++ {
		sets[d] = RandomSample(rng, counters[d-1], frac)
	}
	return RunDiscreteSets("RandSieve-BlkD", tr, capacityBlocks, sets)
}

// RandomSample draws frac of the blocks a counter saw, uniformly and at
// least one if it saw any: RandSieve-BlkD's next-day set.
func RandomSample(rng *rand.Rand, c *analysis.Counter, frac float64) []block.Key {
	keys := c.TopFraction(1.0) // all accessed blocks, deterministic order
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	n := int(frac * float64(len(keys)))
	if n < 1 && len(keys) > 0 {
		n = 1
	}
	return keys[:n]
}

// PerServerStats is one day of an ideal per-server caching configuration
// (§5.3, quadrants III/IV).
type PerServerStats struct {
	Day int
	// Hits is the total accesses captured across all per-server caches.
	Hits int64
	// Accesses is the ensemble's total accesses that day.
	Accesses int64
	// CapacityBlocks is the total cache capacity the configuration uses
	// that day (for the elastic iso-capacity comparison).
	CapacityBlocks int64
}

// HitRatio returns the day's capture ratio.
func (p PerServerStats) HitRatio() float64 {
	if p.Accesses == 0 {
		return 0
	}
	return float64(p.Hits) / float64(p.Accesses)
}

// PerServerTopFraction evaluates the elastic ideal per-server configuration:
// each server's cache holds the top `frac` of the blocks *it* accessed that
// day (the paper's conservative iso-capacity comparison, which even grants
// per-server SSDs elastic capacity). Because the set is oracle-chosen per
// day, hits equal the accesses to set members.
func PerServerTopFraction(perServer [][]*analysis.Counter, frac float64) []PerServerStats {
	out := make([]PerServerStats, len(perServer))
	for d, servers := range perServer {
		st := &out[d]
		st.Day = d
		for _, c := range servers {
			st.Accesses += c.Total()
			top := c.TopFraction(frac)
			st.CapacityBlocks += int64(len(top))
			for _, k := range top {
				st.Hits += c.Count(k)
			}
		}
	}
	return out
}

// PerServerStatic evaluates statically-partitioned per-server caches: each
// server gets capacityPerServer blocks and (ideally) fills them with its
// hottest blocks of the day. No server can borrow another's slack — the
// sharing loss the ensemble-level design eliminates.
func PerServerStatic(perServer [][]*analysis.Counter, capacityPerServer int) []PerServerStats {
	out := make([]PerServerStats, len(perServer))
	for d, servers := range perServer {
		st := &out[d]
		st.Day = d
		for _, c := range servers {
			st.Accesses += c.Total()
			st.CapacityBlocks += int64(capacityPerServer)
			for i, cnt := range c.SortedCounts() {
				if i >= capacityPerServer {
					break
				}
				st.Hits += cnt
			}
		}
	}
	return out
}

// EnsembleStatic evaluates the shared ensemble-level ideal at a given total
// capacity: the day's hottest blocks fill the shared cache. Used for the
// §5.3 iso-cost comparison against PerServerStatic with the same total.
func EnsembleStatic(counters []*analysis.Counter, capacityBlocks int) []PerServerStats {
	out := make([]PerServerStats, len(counters))
	for d, c := range counters {
		st := &out[d]
		st.Day = d
		st.Accesses = c.Total()
		st.CapacityBlocks = int64(capacityBlocks)
		for i, cnt := range c.SortedCounts() {
			if i >= capacityBlocks {
				break
			}
			st.Hits += cnt
		}
	}
	return out
}

// sliceTrace adapts pre-split day slices to the Trace interface.
type sliceTrace struct{ days [][]block.Request }

// NewSliceTrace wraps per-day request slices as a Trace.
func NewSliceTrace(days ...[]block.Request) Trace { return &sliceTrace{days: days} }

func (s *sliceTrace) Days() int { return len(s.days) }

func (s *sliceTrace) Day(d int) ([]block.Request, error) { return s.days[d], nil }
