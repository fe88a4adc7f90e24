package workload

import (
	"math"
	"math/rand"

	"repro/internal/trace"
)

// dayClock samples access timestamps within one calendar day for one
// server: a diurnal intensity profile with the server's peak hour, rare
// short high-intensity bursts, and (on day 0) truncation to the hours after
// trace collection started.
type dayClock struct {
	rng   *rand.Rand
	base  int64 // nanoseconds at the start of the day
	cdf   [24]float64
	first int // first active hour (0 except on day 0)
	// thinP is the day-0 thinning probability applied to per-chunk access
	// counts (1.0 on full days).
	thinP float64
	// bursts are minute indices within the day receiving concentrated
	// extra load; burstP is the probability an access lands in one.
	bursts []int
	burstP float64
}

// survival is the probability an access of day d survives day-0 thinning:
// the share of day 0 after StartHour, 1 on full days.
func survival(cfg *Config, day int) float64 {
	if day == 0 {
		return float64(24-cfg.StartHour) / 24
	}
	return 1
}

// diurnalAmplitude shapes the day/night load swing.
const diurnalAmplitude = 0.65

// burstShare is the fraction of a bursty server-day's accesses packed into
// each burst minute. One burst minute then carries roughly
// burstShare/(1/1440) ≈ 29× the average per-minute load, which is what
// makes the rare multi-drive minutes of Fig 8/9 appear.
const burstShare = 0.02

func newDayClock(rng *rand.Rand, cfg *Config, p *ServerProfile, day int) *dayClock {
	c := &dayClock{rng: rng, base: int64(day) * trace.Day, thinP: survival(cfg, day)}
	if day == 0 {
		c.first = cfg.StartHour
	}
	// Hourly intensity: 1 + A·cos of the distance from the peak hour.
	sum := 0.0
	for h := 0; h < 24; h++ {
		w := 0.0
		if h >= c.first {
			w = 1 + diurnalAmplitude*math.Cos(2*math.Pi*(float64(h)-p.PeakHour)/24)
		}
		sum += w
		c.cdf[h] = sum
	}
	for h := range c.cdf {
		c.cdf[h] /= sum
	}
	// Bursts: BurstMinutes is the expected count; sample a small integer.
	n := 0
	for f := p.BurstMinutes; f > 0; f-- {
		if f >= 1 || rng.Float64() < f {
			n++
		}
	}
	for i := 0; i < n; i++ {
		// Place bursts in active hours, biased by the same diurnal CDF.
		h := c.sampleHour()
		c.bursts = append(c.bursts, h*60+rng.Intn(60))
	}
	c.burstP = burstShare * float64(len(c.bursts))
	return c
}

func (c *dayClock) sampleHour() int {
	u := c.rng.Float64()
	for h, v := range c.cdf {
		if u <= v {
			return h
		}
	}
	return 23
}

// sample returns a timestamp within the day following the diurnal profile,
// possibly redirected into a burst minute.
func (c *dayClock) sample() int64 {
	if len(c.bursts) > 0 && c.rng.Float64() < c.burstP {
		m := c.bursts[c.rng.Intn(len(c.bursts))]
		return c.base + int64(m)*trace.Minute + int64(c.rng.Float64()*float64(trace.Minute))
	}
	h := c.sampleHour()
	return c.base + int64(h)*int64(3600)*1e9 + int64(c.rng.Float64()*3600e9)
}

// spaced returns the i-th of n evenly spaced timestamps across the day's
// active window, offset by a per-block phase and lightly jittered. Cold
// blocks' few reuses reach the block layer this way — the servers'
// in-memory buffer caches absorb short-gap reuse (O1), so the residual
// inter-access gaps (hours) are far beyond what an LRU disk cache of
// SieveStore's size can hold onto.
func (c *dayClock) spaced(phase float64, i, n int) int64 {
	lo := c.base + int64(c.first)*3600*1e9
	span := c.base + trace.Day - lo
	stride := span / int64(n)
	jitter := int64((c.rng.Float64() - 0.5) * 0.3 * float64(stride))
	t := lo + int64(phase*float64(stride)) + int64(i)*stride + jitter
	if t < lo {
		t = lo
	}
	if hi := c.base + trace.Day - 1; t > hi {
		t = hi
	}
	return t
}
