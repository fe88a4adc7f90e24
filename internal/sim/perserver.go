package sim

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/sieve"
	"repro/internal/ssd"
)

// This file simulates *real* per-server caching configurations (the paper's
// quadrants III and IV): one independent cache per server, each with an
// equal slice of the total capacity and its own allocation policy instance.
// Unlike the oracle per-server analyses in harness.go, these run the full
// continuous cache simulation per server, so they can be compared 1:1
// against the shared ensemble-level runs.

// PolicyFactory builds a fresh policy instance for one server's private
// cache. Each server must get its own instance: sieve metastate must not be
// shared across private caches.
type PolicyFactory func(server int) (sieve.Policy, error)

// PerServer routes each request to its own server's private cache.
type PerServer struct{ sims []*Continuous }

// NewPerServer builds `servers` private caches, each of capacity
// totalCapacityBlocks/servers and with its own policy instance.
func NewPerServer(servers, totalCapacityBlocks int, factory PolicyFactory) (*PerServer, error) {
	if servers < 1 {
		return nil, fmt.Errorf("sim: servers must be ≥1, got %d", servers)
	}
	perCap := totalCapacityBlocks / servers
	if perCap < 1 {
		return nil, fmt.Errorf("sim: capacity %d too small for %d servers", totalCapacityBlocks, servers)
	}
	p := &PerServer{sims: make([]*Continuous, servers)}
	for s := range p.sims {
		policy, err := factory(s)
		if err != nil {
			return nil, err
		}
		p.sims[s] = NewContinuous(cache.New(perCap), policy)
	}
	return p, nil
}

// Process simulates one request in its server's cache; requests from
// servers beyond the configured count are rejected.
func (p *PerServer) Process(req *block.Request) error {
	if req.Server < 0 || req.Server >= len(p.sims) {
		return fmt.Errorf("sim: request for unknown server %d", req.Server)
	}
	p.sims[req.Server].Process(req)
	return nil
}

// Result returns the aggregated result plus the per-server results.
func (p *PerServer) Result(totalMinutes int) (*Result, []*Result) {
	perServer := make([]*Result, len(p.sims))
	for s, c := range p.sims {
		perServer[s] = c.Result(totalMinutes)
		perServer[s].Name = fmt.Sprintf("%s[server %d]", perServer[s].Name, s)
	}
	return CombineResults("per-server "+perServer[0].Name, totalMinutes, perServer), perServer
}

// CombineResults merges several simulation results into one aggregate: day
// statistics add; minute loads add element-wise. Used for per-server
// configurations whose caches are separate devices — note that for *drive
// provisioning* the per-server loads must NOT be combined (each private
// cache needs its own drive); use the individual results for Figure 9-style
// analyses of private configurations.
func CombineResults(name string, totalMinutes int, results []*Result) *Result {
	out := &Result{Name: name}
	for _, r := range results {
		for _, d := range r.Days {
			out.day(d.Day).add(d)
		}
	}
	n := totalMinutes
	for _, r := range results {
		if len(r.Minutes) > n {
			n = len(r.Minutes)
		}
	}
	out.Minutes = make([]ssd.MinuteLoad, n)
	for i := range out.Minutes {
		out.Minutes[i].Minute = i
	}
	for _, r := range results {
		for _, l := range r.Minutes {
			out.Minutes[l.Minute].ReadPages += l.ReadPages
			out.Minutes[l.Minute].WritePages += l.WritePages
		}
	}
	return out
}

// PerServerDriveNeeds computes the §5.3 cost side for private caches: each
// server's cache is a separate physical SSD, so the ensemble needs at least
// one drive per *active* server plus extra drives wherever a private
// cache's per-minute load exceeds one drive. Returns the total drives
// needed at the given time-coverage.
func PerServerDriveNeeds(spec *ssd.DeviceSpec, perServer []*Result, coverage float64) int {
	total := 0
	for _, r := range perServer {
		sorted := ssd.DrivesNeeded(spec, r.Minutes)
		d := ssd.DrivesAtCoverage(sorted, coverage)
		if d < 1 {
			// Even an idle private cache occupies a physical drive slot —
			// the minimum-drive-size problem the paper notes for
			// per-server deployment.
			d = 1
		}
		total += d
	}
	return total
}
