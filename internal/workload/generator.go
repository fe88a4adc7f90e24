package workload

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"repro/internal/block"
	"repro/internal/trace"
)

// Generator produces the synthetic ensemble trace day by day. It is
// deterministic for a given Config: the per-day hot sets, cold-block
// schedules and event randomness are all derived from Config.Seed.
//
// Construction precomputes the popularity *structure* for every day (which
// chunks are hot, which fresh chunks each day touches); Day then
// materializes the request stream for one calendar day on demand.
type Generator struct {
	cfg     Config
	names   *trace.NameTable
	servers []*serverState
}

// serverState holds one server's precomputed popularity structure.
type serverState struct {
	profile  *ServerProfile
	id       int
	volumes  []*volumeState
	requests []int // by day, volumeDay.estimate summed over the volumes
}

// volumeState holds one volume's structure. Chunk numbers are volume-local.
type volumeState struct {
	chunks uint64 // capacity of the volume in 4 KiB chunks (scaled)
	// days[d] describes day d's accessed set.
	days []volumeDay
}

// volumeDay is the precomputed accessed-set structure of one volume-day.
type volumeDay struct {
	hot   []uint32 // hot chunks in descending popularity rank order
	cold  []uint32 // cold (low-reuse) chunks touched this day
	theta float64  // effective skew exponent for the day
}

// The cold-block access-count distribution: coldCountWeights[i] is the
// probability that a cold chunk is accessed exactly i+1 times in its day.
// Tuned so that, with the top ~1% hot set layered on top, the ensemble
// reproduces O1: ~half of accessed blocks touched once, ~97% ≤4 accesses,
// ~99% ≤10.
var coldCountWeights = [10]float64{0.55, 0.27, 0.10, 0.04, 0.015, 0.009, 0.006, 0.004, 0.003, 0.003}

var coldCountCDF = func() [10]float64 {
	var cdf [10]float64
	sum := 0.0
	for i, w := range coldCountWeights {
		sum += w
		cdf[i] = sum
	}
	cdf[9] = 1.0 // guard against rounding
	return cdf
}()

// hotBoundaryCount is the access count at the top-1% popularity boundary:
// the paper observes the top 1st-percentile bin averaging ~10 accesses/day.
const hotBoundaryCount = 10

// maxHotCount caps the hottest chunk's daily count. (The paper's top
// 0.01%-ile bin averages >1000 accesses per 512 B block; we cap lower
// because at reproduction scale an uncapped power-law top concentrates
// mass in blocks every policy caches, washing out the sieved-vs-unsieved
// contrast the paper reports.)
const maxHotCount = 800

// hotFraction is the fraction of a day's accessed chunks that form the hot
// set (O1's "top 1%").
const hotFraction = 0.01

// subChunkProb is the probability that an access is issued as a sub-4KiB
// request (the paper notes ~6% of accesses are not 4 KiB aligned).
const subChunkProb = 0.06

// seqRunProb is the probability that a cold single-access chunk is read as
// part of a short disk-sequential multi-chunk request.
const seqRunProb = 0.03

// New validates cfg and precomputes the trace structure.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Servers) > block.MaxServers {
		return nil, fmt.Errorf("workload: %d servers exceed block.MaxServers", len(cfg.Servers))
	}
	g := &Generator{cfg: cfg, names: trace.NewNameTable(cfg.ServerNames()...)}
	structRNG := rand.New(rand.NewSource(cfg.Seed))
	for i := range cfg.Servers {
		p := &cfg.Servers[i]
		if p.Volumes > block.MaxVolumes {
			return nil, fmt.Errorf("workload: server %s: %d volumes exceed block.MaxVolumes", p.Name, p.Volumes)
		}
		ss := &serverState{profile: p, id: i}
		if err := ss.build(&cfg, structRNG); err != nil {
			return nil, err
		}
		g.servers = append(g.servers, ss)
	}
	return g, nil
}

// Names returns the server name table for the generated trace.
func (g *Generator) Names() *trace.NameTable { return g.names }

// Days returns the number of calendar days in the trace (it satisfies the
// simulator's Trace interface together with Day).
func (g *Generator) Days() int { return g.cfg.Days }

// build precomputes the volume structures for all days of one server.
func (s *serverState) build(cfg *Config, rng *rand.Rand) error {
	p := s.profile
	capChunks := scaleChunks(p.CapacityGB, cfg.Scale)
	dailyChunks := scaleChunks(p.DailyGB, cfg.Scale)
	perVolCap := capChunks / uint64(p.Volumes)
	if perVolCap < 32 {
		return fmt.Errorf("workload: server %s: scale %d leaves volumes with only %d chunks",
			p.Name, cfg.Scale, perVolCap)
	}
	perVolDaily := dailyChunks / uint64(p.Volumes)
	if perVolDaily < 8 {
		perVolDaily = 8
	}
	s.requests = make([]int, cfg.Days)
	for v := 0; v < p.Volumes; v++ {
		vs := &volumeState{chunks: perVolCap}
		// A shuffled permutation of the volume's chunks provides the
		// fresh-block schedule: each day consumes the next run of the
		// permutation, guaranteeing distinct blocks within a day and
		// mostly-fresh blocks across days (reshuffled on wrap).
		perm := rng.Perm(int(perVolCap))
		cursor := 0
		take := func(n int) []uint32 {
			out := make([]uint32, 0, n)
			for len(out) < n {
				if cursor >= len(perm) {
					perm = rng.Perm(int(perVolCap))
					cursor = 0
				}
				out = append(out, uint32(perm[cursor]))
				cursor++
			}
			return out
		}
		var hot []uint32
		for d := 0; d < cfg.Days; d++ {
			mult := dayMult(p, d)
			unique := int(math.Max(8, float64(perVolDaily)*mult))
			hotSize := int(math.Max(2, math.Round(hotFraction*float64(unique))))
			switch {
			case hot == nil:
				hot = take(hotSize)
			default:
				hot = driftHot(hot, hotSize, p.HotDrift, take, rng)
			}
			day := volumeDay{
				hot:   append([]uint32(nil), hot...),
				cold:  take(unique - hotSize),
				theta: effectiveTheta(p, v, d),
			}
			vs.days = append(vs.days, day)
			s.requests[d] += day.estimate(hotBoost(cfg.Seed, s.id, d), survival(cfg, d))
		}
		s.volumes = append(s.volumes, vs)
	}
	return nil
}

// scaleChunks converts an unscaled capacity in GB to a scaled chunk count.
func scaleChunks(gb float64, scale int) uint64 {
	chunks := gb * (1 << 30) / ChunkBytes / float64(scale)
	if chunks < 1 {
		return 1
	}
	return uint64(chunks)
}

func dayMult(p *ServerProfile, d int) float64 {
	if d < len(p.DayMult) && p.DayMult[d] > 0 {
		return p.DayMult[d]
	}
	return 1
}

func effectiveTheta(p *ServerProfile, volume, day int) float64 {
	theta := p.Theta
	if day < len(p.ThetaByDay) && p.ThetaByDay[day] > 0 {
		theta = p.ThetaByDay[day]
	}
	if volume < len(p.VolumeSkew) && p.VolumeSkew[volume] > 0 {
		theta *= p.VolumeSkew[volume]
	}
	return theta
}

// driftHot evolves a hot set: it keeps a (1-drift) fraction of the previous
// day's hot chunks (preserving rank order, so yesterday's hottest blocks
// stay hottest — the paper notes significant overlap between successive
// days) and fills the remainder, plus any size change, with fresh chunks.
func driftHot(prev []uint32, size int, drift float64, take func(int) []uint32, rng *rand.Rand) []uint32 {
	keep := int(math.Round(float64(len(prev)) * (1 - drift)))
	if keep > size {
		keep = size
	}
	// Keep a random subset but preserve relative order.
	kept := make([]uint32, 0, size)
	if keep > 0 {
		idx := rng.Perm(len(prev))[:keep]
		used := make(map[int]bool, keep)
		for _, i := range idx {
			used[i] = true
		}
		for i, c := range prev {
			if used[i] {
				kept = append(kept, c)
			}
		}
	}
	fresh := take(size - len(kept))
	// Interleave fresh chunks through the ranks so new entrants can become
	// hot, not only tail-warm.
	out := make([]uint32, 0, size)
	fi, ki := 0, 0
	for len(out) < size {
		if fi < len(fresh) && (ki >= len(kept) || rng.Float64() < float64(len(fresh))/float64(size)) {
			out = append(out, fresh[fi])
			fi++
		} else if ki < len(kept) {
			out = append(out, kept[ki])
			ki++
		}
	}
	return out
}

// hotCount returns the daily access count of the hot chunk at 0-based rank
// r within a hot set of size h and skew theta. Counts follow a truncated
// power law anchored so the coldest hot chunk sits at the paper's observed
// top-1% boundary (~10 accesses/day).
func hotCount(r, h int, theta float64) int {
	c := hotBoundaryCount * math.Pow(float64(h)/float64(r+1), theta)
	if c > maxHotCount {
		c = maxHotCount
	}
	if c < hotBoundaryCount {
		c = hotBoundaryCount
	}
	return int(math.Round(c))
}

// hotAccesses is the access count, before day-0 thinning, of the hot chunk
// at rank r.
func (v *volumeDay) hotAccesses(r int, boost float64) int {
	return int(math.Round(float64(hotCount(r, len(v.hot), v.theta)) * boost))
}

// estimate is the volume-day's request count as Day sizes its slices by:
// exact for hot chunks before thinning, two for a cold chunk (mean 1.81),
// then scaled by p, the share of accesses thinning keeps.
func (v *volumeDay) estimate(boost, p float64) int {
	n := 2 * len(v.cold)
	for r := range v.hot {
		n += v.hotAccesses(r, boost)
	}
	return int(math.Ceil(float64(n) * p))
}

// hotBoost returns a deterministic per-server-per-day multiplier on hot
// access counts, in roughly [0.6, 2.2]. Together with the per-server skew
// differences this produces the paper's wide day-to-day swing in the
// fraction of accesses the ensemble top-1% captures (14%–53%).
func hotBoost(seed int64, server, day int) float64 {
	r := rand.New(rand.NewSource(seed*7_368_787 + int64(server)*31 + int64(day)*1009))
	return 1.1 + 1.0*r.Float64()
}

// coldCount samples a cold chunk's daily access count (1..10).
func coldCount(rng *rand.Rand) int {
	u := rng.Float64()
	for i, c := range coldCountCDF {
		if u <= c {
			return i + 1
		}
	}
	return len(coldCountCDF)
}

// Day materializes the request stream for calendar day d, sorted by issue
// time, equal times in server order and then in emission order. Day 0 is
// partial: only accesses after Config.StartHour survive (binomial thinning
// of the per-chunk counts), reproducing the paper's outlier first day.
//
// The servers are emitted on min(GOMAXPROCS, servers) workers, each server
// on the least-loaded worker by its estimated requests, in server order. A
// worker stably sorts what it emitted and mergeByTime joins the parts by
// (time, server): DESIGN.md §7 says why that is deterministic.
func (g *Generator) Day(d int) ([]block.Request, error) {
	if d < 0 || d >= g.cfg.Days {
		return nil, fmt.Errorf("workload: day %d out of range [0,%d)", d, g.cfg.Days)
	}
	parts := make([][]block.Request, min(runtime.GOMAXPROCS(0), len(g.servers)))
	own, load := make([][]*serverState, len(parts)), make([]int, len(parts))
	for _, s := range g.servers {
		w := slices.Index(load, slices.Min(load))
		own[w], load[w] = append(own[w], s), load[w]+s.requests[d]
	}
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = make([]block.Request, 0, load[w])
			for _, s := range own[w] {
				parts[w] = s.emitDay(&g.cfg, d, parts[w])
			}
			trace.SortByTime(parts[w])
		}()
	}
	wg.Wait()
	return mergeByTime(parts), nil
}

// mergeByTime merges parts, each sorted by time and equal times by server,
// no server in two of them, into one slice sorted the same way.
func mergeByTime(parts [][]block.Request) []block.Request {
	if len(parts) == 1 {
		return parts[0]
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]block.Request, 0, n)
	for len(out) < n {
		m := -1
		for i, p := range parts {
			if len(p) > 0 && (m < 0 || p[0].Time < parts[m][0].Time ||
				p[0].Time == parts[m][0].Time && p[0].Server < parts[m][0].Server) {
				m = i
			}
		}
		out, parts[m] = append(out, parts[m][0]), parts[m][1:]
	}
	return out
}

// Reader returns a streaming Reader over the full trace (all days in
// order). Each day is materialized lazily.
func (g *Generator) Reader() trace.Reader { return trace.DayReader(g.cfg.Days, g.Day) }

// emitDay appends one server's requests for day d.
func (s *serverState) emitDay(cfg *Config, d int, reqs []block.Request) []block.Request {
	p := s.profile
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(s.id)*4099 + int64(d)))
	clock := newDayClock(rng, cfg, p, d)
	for v, vs := range s.volumes {
		day := &vs.days[d]
		emit := func(chunk uint32, count int, cold bool) {
			reqs = s.emitChunk(rng, clock, d, v, vs, chunk, count, cold, reqs)
		}
		boost := hotBoost(cfg.Seed, s.id, d)
		for r, chunk := range day.hot {
			emit(chunk, thin(rng, day.hotAccesses(r, boost), clock.thinP), false)
		}
		for _, chunk := range day.cold {
			emit(chunk, thin(rng, coldCount(rng), clock.thinP), true)
		}
	}
	return reqs
}

// thin applies day-0 binomial thinning: each access independently survives
// with probability p.
func thin(rng *rand.Rand, count int, p float64) int {
	if p >= 1 {
		return count
	}
	kept := 0
	for i := 0; i < count; i++ {
		if rng.Float64() < p {
			kept++
		}
	}
	return kept
}

// emitChunk emits `count` accesses to one chunk.
func (s *serverState) emitChunk(rng *rand.Rand, clock *dayClock, d, v int, vs *volumeState,
	chunk uint32, count int, cold bool, reqs []block.Request) []block.Request {
	if count <= 0 {
		return reqs
	}
	p := s.profile
	base := uint64(chunk) * ChunkBytes
	// Cold reuse is evenly spaced across the day (gaps of hours — the
	// buffer caches upstream absorbed anything shorter, O1); hot blocks are
	// sampled from the diurnal profile throughout the day.
	phase := rng.Float64()
	for i := 0; i < count; i++ {
		var t int64
		if cold && count > 1 {
			t = clock.spaced(phase, i, count)
		} else {
			t = clock.sample()
		}
		kind := block.Read
		if rng.Float64() < p.WriteFraction {
			kind = block.Write
		}
		offset, length := base, uint32(ChunkBytes)
		switch {
		case cold && count == 1 && kind == block.Read && rng.Float64() < seqRunProb:
			// Disk-sequential scan: read this chunk plus a few neighbours.
			run := uint64(2 + rng.Intn(7))
			if max := vs.chunks - uint64(chunk); run > max {
				run = max
			}
			length = uint32(run * ChunkBytes)
		case rng.Float64() < subChunkProb:
			// Sub-page request, possibly unaligned within the chunk.
			nblk := 1 + rng.Intn(4)
			length = uint32(nblk * block.Size)
			offset = base + uint64(rng.Intn(block.BlocksPerPage-nblk+1))*block.Size
		}
		reqs = append(reqs, block.Request{
			Time:     t,
			Duration: serviceTime(rng),
			Server:   s.id,
			Volume:   v,
			Kind:     kind,
			Offset:   offset,
			Length:   length,
		})
	}
	return reqs
}

// serviceTime samples a plausible HDD service time (the trace's
// ResponseTime column): ~2–60 ms.
func serviceTime(rng *rand.Rand) int64 {
	ms := 2 + rng.ExpFloat64()*6
	if ms > 60 {
		ms = 60
	}
	return int64(ms * 1e6)
}
