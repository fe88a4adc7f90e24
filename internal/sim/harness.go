package sim

import (
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/sieve"
)

// Trace is a day-addressable request trace (satisfied by
// workload.Generator and by pre-split trace files).
type Trace interface {
	// Days returns the number of calendar days.
	Days() int
	// Day returns day d's requests in time order.
	Day(d int) ([]block.Request, error)
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
	c := NewContinuous(cache.New(capacityBlocks), policy)
	if err := eachRequest(tr, func(req *block.Request) error { c.Process(req); return nil }); err != nil {
		return nil, err
	}
	return c.Result(tr.Days() * 24 * 60), nil
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
