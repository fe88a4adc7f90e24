package exp

import (
	"strings"

	"repro/internal/sim"
	"repro/internal/ssd"
)

// QuadrantResult is one cell of the paper's Figure 1 design space, which
// Sweep runs as an executable 2×2 matrix: {sieved, unsieved} ×
// {ensemble-level, per-server}. All four quadrants are full continuous-cache
// simulations at identical total capacity, and the cost column counts
// physical drives (per-server configurations pay one device per server — the
// minimum-drive problem the paper notes).
type QuadrantResult struct {
	// Quadrant is the paper's numbering: I sieved+ensemble,
	// II unsieved+ensemble, III unsieved+per-server, IV sieved+per-server.
	Quadrant string
	Name     string
	HitRatio float64
	// AllocWrites is total cache-fill writes (blocks).
	AllocWrites int64
	// Drives is the physical device count at 99.9% time coverage.
	Drives int
}

// quadrants reads the Figure 1 matrix off the runs. Drives count at 99.9%
// time coverage with loads scaled back to paper volume; a per-server
// configuration pays at least one device per server
// (sim.PerServerDriveNeeds).
func (s *sweepRuns) quadrants(scale, minutes int) []QuadrantResult {
	spec := Device()
	quadrant := func(q, name string, r *sim.Result, drives int) QuadrantResult {
		t := r.Total()
		return QuadrantResult{Quadrant: q, Name: name, HitRatio: t.HitRatio(), AllocWrites: t.AllocWrites, Drives: drives}
	}
	ensemble := func(q, name string, c *sim.Continuous) QuadrantResult {
		r := c.Result(minutes)
		loads := ssd.ScaleLoads(r.Minutes, float64(scale))
		return quadrant(q, name, r, ssd.DrivesAtCoverage(ssd.DrivesNeeded(&spec, loads), 0.999))
	}
	perServer := func(q, name string, p *sim.PerServer) QuadrantResult {
		combined, each := p.Result(minutes)
		scaled := make([]*sim.Result, len(each))
		for i, r := range each {
			scaled[i] = &sim.Result{Minutes: ssd.ScaleLoads(r.Minutes, float64(scale))}
		}
		return quadrant(q, name, combined, sim.PerServerDriveNeeds(&spec, scaled, 0.999))
	}
	return []QuadrantResult{
		ensemble("I", "SieveStore-C (sieved, ensemble)", s.base),
		ensemble("II", "WMNA (unsieved, ensemble)", s.unsieved[0]),
		perServer("III", "WMNA (unsieved, per-server)", s.perWMNA),
		perServer("IV", "SieveStore-C (sieved, per-server)", s.perC),
	}
}

// FormatQuadrants renders the Figure 1 matrix.
func FormatQuadrants(rows []QuadrantResult) string {
	var b strings.Builder
	line(&b, "Figure 1 design space (equal total capacity; drives at 99.9%% coverage):")
	line(&b, "%-4s %-36s %8s %14s %8s", "Q", "Configuration", "Hit%", "AllocWrites", "Drives")
	for _, r := range rows {
		line(&b, "%-4s %-36s %8.2f %14d %8d", r.Quadrant, r.Name, 100*r.HitRatio, r.AllocWrites, r.Drives)
	}
	if len(rows) == 4 {
		line(&b, "Quadrant I dominates: most hits (vs II: %+.0f%%, vs IV: %+.0f%%) at the fewest drives.",
			100*(rows[0].HitRatio/rows[1].HitRatio-1), 100*(rows[0].HitRatio/rows[3].HitRatio-1))
	}
	return b.String()
}
