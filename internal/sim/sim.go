// Package sim is the trace-driven cache simulator: it drives allocation
// policies over block traces and produces the per-day hit/allocation
// statistics and per-minute SSD load series that all of the paper's
// evaluation figures (5–9 and §5.3) are built from.
//
// Two caching models are supported, mirroring the paper (§3):
//
//   - Continuous: a fully-associative cache.Cache probed for every block of
//     a request, then a sieve.Policy offered the request's misses as one
//     run at its issue time, in block order, as core.Store offers them to
//     its sieve (SieveStore-C, AOD, WMNA, RandSieve-C). Its replacement is
//     LRU, as in the paper, or FIFO, CLOCK, SIEVE or S3-FIFO for the §3.1
//     ablation. Allocation-writes are timed at the originating request's
//     completion (§4) and charged to the SSD load series.
//   - Discrete: a per-epoch resident set with no replacement inside the
//     epoch (SieveStore-D, the per-day Ideal sieve, RandSieve-BlkD). Epoch
//     moves are counted but not charged to the minute series, matching the
//     paper's assumption that batch moves are staggered into slack periods.
package sim

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/sieve"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// DayStats aggregates one calendar day of simulation, in 512-byte block
// units (the paper's accounting granularity).
type DayStats struct {
	Day         int
	Accesses    int64 // total block accesses
	Reads       int64
	Writes      int64
	ReadHits    int64
	WriteHits   int64
	AllocWrites int64 // blocks written into the cache on allocation
	Evictions   int64
	// Moves counts discrete-epoch batch moves performed at the *start* of
	// this day (blocks copied into the cache; ≤0.5% of accesses for
	// SieveStore-D, §3.2).
	Moves int64
}

// Hits returns total hits.
func (d DayStats) Hits() int64 { return d.ReadHits + d.WriteHits }

// HitRatio returns the fraction of accesses captured.
func (d DayStats) HitRatio() float64 {
	if d.Accesses == 0 {
		return 0
	}
	return float64(d.Hits()) / float64(d.Accesses)
}

// SSDWrites returns all SSD write operations in block units (write hits
// plus allocation-writes).
func (d DayStats) SSDWrites() int64 { return d.WriteHits + d.AllocWrites }

// SSDOps returns all SSD operations in block units.
func (d DayStats) SSDOps() int64 { return d.ReadHits + d.SSDWrites() }

// Result is a full simulation outcome.
type Result struct {
	Name string
	// Days holds per-calendar-day statistics.
	Days []DayStats
	// Minutes is the SSD load series in trace-scale page operations.
	Minutes []ssd.MinuteLoad
}

// add accumulates o's counts into d.
func (d *DayStats) add(o DayStats) {
	d.Accesses += o.Accesses
	d.Reads += o.Reads
	d.Writes += o.Writes
	d.ReadHits += o.ReadHits
	d.WriteHits += o.WriteHits
	d.AllocWrites += o.AllocWrites
	d.Evictions += o.Evictions
	d.Moves += o.Moves
}

// Total sums the per-day statistics.
func (r *Result) Total() DayStats {
	t := DayStats{Day: -1}
	for _, d := range r.Days {
		t.add(d)
	}
	return t
}

// day returns the stats bucket for calendar day d, growing as needed.
func (r *Result) day(d int) *DayStats {
	for len(r.Days) <= d {
		r.Days = append(r.Days, DayStats{Day: len(r.Days)})
	}
	return &r.Days[d]
}

// Continuous simulates a continuously-allocated cache under a sieve
// policy. The replacement policy is the cache's: LRU in the paper, the
// others for the §3.1 replacement ablation.
type Continuous struct {
	cache   *cache.Cache
	policy  sieve.Policy
	result  Result
	minutes ssd.MinuteSeries
	accBuf  []block.Access
	// misses and admitted are one request's missed blocks and the indexes
	// in misses of those the policy admitted.
	misses   []block.Key
	admitted []int
}

// NewContinuous returns a simulator over c, which it owns from then on.
// The result is named policy/replacement when c's replacement is not the
// paper's LRU.
func NewContinuous(c *cache.Cache, policy sieve.Policy) *Continuous {
	name := policy.Name()
	if c.Name() != "LRU" {
		name += "/" + c.Name()
	}
	return &Continuous{cache: c, policy: policy, result: Result{Name: name}}
}

// Process simulates one trace request as core.Store serves it: every block
// is probed first, then the misses go to the policy as one run at the
// request's issue time, in block order, and the blocks it admits are
// inserted in that order.
func (c *Continuous) Process(req *block.Request) {
	st := c.result.day(trace.DayOf(req.Time))
	c.accBuf = trace.Expand(c.accBuf[:0], req)
	c.misses = c.misses[:0]
	for _, acc := range c.accBuf {
		if !c.cache.Touch(acc.Key) {
			c.misses = append(c.misses, acc.Key)
		}
	}
	c.admitted = c.policy.AdmitRun(req.Time, req.Kind, c.misses, c.admitted[:0])
	for _, j := range c.admitted {
		if _, evicted := c.cache.Insert(c.misses[j]); evicted {
			st.Evictions++
		}
	}
	bookHits(st, &c.minutes, req, int64(len(c.accBuf)), int64(len(c.accBuf)-len(c.misses)))
	if alloc := int64(len(c.admitted)); alloc > 0 {
		// Allocation can only start once the data has been fetched from
		// the ensemble, so allocation-writes are charged at the last
		// admitted block's (interpolated) completion minute (§4).
		st.AllocWrites += alloc
		last := c.misses[c.admitted[alloc-1]] - c.accBuf[0].Key
		c.minutes.AddWrites(trace.MinuteOf(c.accBuf[last].Time), pages(alloc))
	}
}

// bookHits counts a request of n blocks, hits of which hit, into st and
// charges the hits' SSD pages at the request's issue minute. Partial pages
// are charged as whole pages (§4's conservative cost assessment).
func bookHits(st *DayStats, ms *ssd.MinuteSeries, req *block.Request, n, hits int64) {
	count, hit, charge := &st.Reads, &st.ReadHits, ms.AddReads
	if req.Kind == block.Write {
		count, hit, charge = &st.Writes, &st.WriteHits, ms.AddWrites
	}
	st.Accesses += n
	*count += n
	*hit += hits
	if hits > 0 {
		charge(trace.MinuteOf(req.Time), pages(hits))
	}
}

// pages converts a block count to whole 4 KiB page operations.
func pages(blocks int64) float64 {
	return float64((blocks + block.BlocksPerPage - 1) / block.BlocksPerPage)
}

// Result finalizes and returns the simulation result. The minute series is
// dense from minute 0 and runs to the later of the last active minute and
// totalMinutes (pass the trace length; 0 ends it at the last active
// minute), idle minutes at zero load.
func (c *Continuous) Result(totalMinutes int) *Result {
	c.result.Minutes = c.minutes.Loads(totalMinutes)
	return &c.result
}

// EpochSetFunc returns the resident set for a calendar day, hottest block
// first. It is consulted at the start of each day; returning an empty set
// models an unbootstrapped cache (SieveStore-D on day 0).
type EpochSetFunc func(day int) []block.Key

// Discrete simulates epoch-batch caching: at each day boundary the resident
// set is replaced wholesale and then remains fixed for the day (§3.2).
type Discrete struct {
	cache   *cache.Cache
	sets    EpochSetFunc
	result  Result
	minutes ssd.MinuteSeries
	curDay  int
	started bool
	accBuf  []block.Access
}

// NewDiscrete returns a discrete-epoch simulator.
func NewDiscrete(name string, capacityBlocks int, sets EpochSetFunc) *Discrete {
	return &Discrete{cache: cache.New(capacityBlocks), sets: sets, result: Result{Name: name}}
}

// beginDay installs day d's resident set.
func (d *Discrete) beginDay(day int) {
	moved, _, _ := d.cache.Swap(d.sets(day))
	st := d.result.day(day)
	st.Moves += int64(moved)
	d.curDay = day
	d.started = true
}

// Process simulates one trace request. Requests must arrive in
// non-decreasing day order.
func (d *Discrete) Process(req *block.Request) error {
	day := trace.DayOf(req.Time)
	if !d.started || day != d.curDay {
		if d.started && day < d.curDay {
			return fmt.Errorf("sim: discrete requests out of day order (%d after %d)", day, d.curDay)
		}
		for nd := d.nextDay(); nd <= day; nd++ {
			d.beginDay(nd)
		}
	}
	d.accBuf = trace.Expand(d.accBuf[:0], req)
	var hits int64
	for _, acc := range d.accBuf {
		if d.cache.Contains(acc.Key) {
			hits++
		}
	}
	bookHits(d.result.day(day), &d.minutes, req, int64(len(d.accBuf)), hits)
	return nil
}

func (d *Discrete) nextDay() int {
	if !d.started {
		return 0
	}
	return d.curDay + 1
}

// Result finalizes and returns the simulation result.
func (d *Discrete) Result(totalMinutes int) *Result {
	d.result.Minutes = d.minutes.Loads(totalMinutes)
	return &d.result
}
