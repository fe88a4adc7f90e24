package exp

import (
	"strings"

	"repro/internal/metrics"
	"repro/internal/sieve"
	"repro/internal/sim"
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

// PerServerSieveC returns the policy factory for quadrant IV: one private
// SieveStore-C per server, each with an even share of the IMCT (never under
// 256 slots).
func (c *Config) PerServerSieveC() sim.PolicyFactory {
	sc := c.SieveC
	sc.IMCTSize = max(sc.IMCTSize/len(c.Workload.Servers), 256)
	return func(int) (sieve.Policy, error) { return sieve.NewC(sc) }
}

// PerServerDrives counts the physical drives private caches need at 99.9%
// time coverage, with each cache's load scaled back to paper volume and at
// least one device per server (sim.PerServerDriveNeeds).
func (c *Config) PerServerDrives(perServer []*sim.Result) int {
	spec := Device()
	scaled := make([]*sim.Result, len(perServer))
	for i, r := range perServer {
		scaled[i] = &sim.Result{Minutes: metrics.ScaleLoads(r.Minutes, float64(c.Workload.Scale))}
	}
	return sim.PerServerDriveNeeds(&spec, scaled, 0.999)
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
