// Package analysis implements the popularity-skew analyses of the paper's
// Section 2: per-day block access counting, percentile binning (Figure 2a),
// cumulative access distributions (Figures 2b/2c and 3a–3c), top-k
// popular-block extraction (the ideal sieve and SieveStore-D's offline
// selection both build on it), per-server composition of the ensemble hot
// set (Figure 3d), and day-over-day hot-set overlap.
package analysis

import (
	"repro/internal/block"
	"repro/internal/trace"
)

// Counter accumulates per-block access counts, typically for one calendar
// day of one trace scope (ensemble, server, or volume). It caches its
// ranking, so even its read methods are not safe for concurrent use.
type Counter struct {
	counts map[block.Key]int64
	total  int64
	ranked []entry // sortedEntries' result; Add drops it
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[block.Key]int64)}
}

// Add records one access to key.
func (c *Counter) Add(key block.Key) {
	c.counts[key]++
	c.total++
	c.ranked = nil
}

// AddRequest records every block the request touches.
func (c *Counter) AddRequest(req *block.Request) {
	n := req.Blocks()
	first := req.Offset / block.Size
	for i := 0; i < n; i++ {
		c.Add(block.MakeKey(req.Server, req.Volume, first+uint64(i)))
	}
}

// Total returns the number of accesses recorded.
func (c *Counter) Total() int64 { return c.total }

// Unique returns the number of distinct blocks accessed.
func (c *Counter) Unique() int { return len(c.counts) }

// Count returns the access count of one block.
func (c *Counter) Count(key block.Key) int64 { return c.counts[key] }

// entry pairs a block with its count for sorting.
type entry struct {
	key   block.Key
	count int64
}

// sortedEntries returns the counter's blocks in descending count order,
// ties broken by ascending key so results are deterministic. It ranks once
// per run of Adds; callers must not modify the result.
func (c *Counter) sortedEntries() []entry {
	if c.ranked != nil {
		return c.ranked
	}
	es, keys := make([]entry, 0, len(c.counts)), make([]uint64, 0, len(c.counts))
	for k, n := range c.counts {
		es, keys = append(es, entry{k, n}), append(keys, uint64(k))
	}
	// Two stable passes: by key, then by descending count.
	byKey := trace.StableOrder(keys)
	for i, j := range byKey {
		keys[i] = ^uint64(es[j].count)
	}
	c.ranked = make([]entry, len(es))
	for i, j := range trace.StableOrder(keys) {
		c.ranked[i] = es[byKey[j]]
	}
	return c.ranked
}

// SortedCounts returns just the access counts in descending order.
func (c *Counter) SortedCounts() []int64 {
	es := c.sortedEntries()
	out := make([]int64, len(es))
	for i, e := range es {
		out[i] = e.count
	}
	return out
}

// TopFraction returns the most popular floor(frac·unique) blocks, at least
// one if there are any, most popular first (frac = 0.01: the "top 1%").
func (c *Counter) TopFraction(frac float64) []block.Key {
	n := topN(len(c.counts), frac)
	es := c.sortedEntries()
	out := make([]block.Key, n)
	for i := 0; i < n; i++ {
		out[i] = es[i].key
	}
	return out
}

// topN converts a fraction of `unique` into a block count (≥1 when there
// are any blocks).
func topN(unique int, frac float64) int {
	if unique == 0 {
		return 0
	}
	n := int(frac * float64(unique))
	if n < 1 {
		n = 1
	}
	if n > unique {
		n = unique
	}
	return n
}

// TopShare returns the fraction of all accesses captured by the top frac of
// blocks (the quantity behind Figure 2(c)'s knee and the ideal bar of
// Figure 5).
func (c *Counter) TopShare(frac float64) float64 {
	if c.total == 0 {
		return 0
	}
	es := c.sortedEntries()
	n := topN(len(es), frac)
	var sum int64
	for i := 0; i < n; i++ {
		sum += es[i].count
	}
	return float64(sum) / float64(c.total)
}

// CountLE returns the fraction of accessed blocks whose count is ≤ n
// (supports O1 statements like "99% of blocks see 10 or fewer accesses").
func (c *Counter) CountLE(n int64) float64 {
	if len(c.counts) == 0 {
		return 0
	}
	le := 0
	for _, cnt := range c.counts {
		if cnt <= n {
			le++
		}
	}
	return float64(le) / float64(len(c.counts))
}

// Bin is one percentile bin of the access-count distribution (Figure 2a).
type Bin struct {
	// UpperPercentile is the bin's right edge as a fraction of blocks:
	// 0.0001 for the 0.01th-percentile bin, 0.01 for the 1st percentile...
	UpperPercentile float64
	// AvgCount is the mean access count of the bin's blocks.
	AvgCount float64
	// MaxCount is the largest count in the bin.
	MaxCount int64
}

// Bins groups the blocks (sorted by descending popularity) into `bins`
// equal-occupancy bins — the paper uses 10 000 so each holds 0.01% of the
// day's accessed blocks — and returns each bin's average and maximum count.
// If there are fewer blocks than bins, each block gets its own bin.
func (c *Counter) Bins(bins int) []Bin {
	es := c.sortedEntries()
	n := len(es)
	if n == 0 || bins <= 0 {
		return nil
	}
	if bins > n {
		bins = n
	}
	out := make([]Bin, 0, bins)
	for b := 0; b < bins; b++ {
		lo := b * n / bins
		hi := (b + 1) * n / bins
		if hi <= lo {
			continue
		}
		var sum, maxc int64
		for _, e := range es[lo:hi] {
			sum += e.count
			if e.count > maxc {
				maxc = e.count
			}
		}
		out = append(out, Bin{
			UpperPercentile: float64(hi) / float64(n),
			AvgCount:        float64(sum) / float64(hi-lo),
			MaxCount:        maxc,
		})
	}
	return out
}

// CDFPoint is one point of the cumulative access distribution: the top
// Percentile of blocks capture CumFraction of accesses.
type CDFPoint struct {
	Percentile  float64
	CumFraction float64
}

// CDF returns the cumulative fraction of accesses captured by the top-k
// blocks, sampled at `points` evenly spaced block-percentiles
// (Figures 2b/2c, 3a–3c). The final point is always (1, 1).
func (c *Counter) CDF(points int) []CDFPoint {
	es := c.sortedEntries()
	n := len(es)
	if n == 0 || points <= 0 || c.total == 0 {
		return nil
	}
	if points > n {
		points = n
	}
	out := make([]CDFPoint, 0, points)
	var cum int64
	next := 0
	for p := 1; p <= points; p++ {
		hi := p * n / points
		for ; next < hi; next++ {
			cum += es[next].count
		}
		out = append(out, CDFPoint{
			Percentile:  float64(hi) / float64(n),
			CumFraction: float64(cum) / float64(c.total),
		})
	}
	return out
}

// ShareByServer returns, for a set of blocks, the fraction contributed by
// each server, and the fraction of total accesses those blocks capture is
// NOT considered — this is Figure 3(d)'s per-server composition of the
// ensemble top-1% set.
func ShareByServer(keys []block.Key, servers int) []float64 {
	out := make([]float64, servers)
	if len(keys) == 0 {
		return out
	}
	for _, k := range keys {
		if s := k.Server(); s < servers {
			out[s]++
		}
	}
	for i := range out {
		out[i] /= float64(len(keys))
	}
	return out
}

// Overlap returns |a∩b| / |b|: the fraction of b's blocks already in a
// (day-over-day hot-set overlap, the property reconciling O2 with
// SieveStore-D's use of yesterday's counts).
func Overlap(a, b []block.Key) float64 {
	if len(b) == 0 {
		return 0
	}
	in := make(map[block.Key]bool, len(a))
	for _, k := range a {
		in[k] = true
	}
	hits := 0
	for _, k := range b {
		if in[k] {
			hits++
		}
	}
	return float64(hits) / float64(len(b))
}
