package ssd

// This file models multi-drive SieveStore nodes — the paper's §7
// forward-looking scaling discussion (and the fallback its §5.2 results
// imply: the 9 minutes where SieveStore-C's load exceeds one X25-E are
// served by striping the cache across two drives).

// Array is a stripe set of identical SSDs serving one cache.
type Array struct {
	Spec DeviceSpec
	// Drives is the stripe width.
	Drives int
	// Imbalance models hash-striping skew: the hottest drive receives
	// Imbalance × the fair share of operations (1.0 = perfectly balanced;
	// hash-striped block caches typically measure 1.05–1.15).
	Imbalance float64
}

// Occupancy returns the hottest member drive's occupancy under the given
// per-minute page loads: the fair share times the imbalance factor. A
// single-drive array has no imbalance by construction.
func (a *Array) Occupancy(readPages, writePages float64) float64 {
	imb := a.Imbalance
	if a.Drives == 1 {
		imb = 1
	}
	share := imb / float64(a.Drives)
	return a.Spec.Occupancy(readPages*share, writePages*share)
}

// Saturated reports whether any member drive exceeds full occupancy for
// the load.
func (a *Array) Saturated(readPages, writePages float64) bool {
	return a.Occupancy(readPages, writePages) > 1+1e-9
}

// MinDrivesFor returns the smallest stripe width whose hottest drive stays
// under full occupancy for every load in the series at the given coverage
// (fraction of minutes that must be fully served), assuming the array's
// imbalance factor. It answers the paper's scaling question: how does the
// SieveStore node grow with ensemble load?
func MinDrivesFor(spec DeviceSpec, imbalance float64, loads []MinuteLoad, coverage float64) int {
	if len(loads) == 0 {
		return 1
	}
	for drives := 1; ; drives++ {
		arr := Array{Spec: spec, Drives: drives, Imbalance: imbalance}
		over := 0
		for _, l := range loads {
			if arr.Saturated(l.ReadPages, l.WritePages) {
				over++
			}
		}
		served := 1 - float64(over)/float64(len(loads))
		if served >= coverage-1e-12 {
			return drives
		}
		if drives > 1<<20 {
			// Pathological input (e.g. +Inf load); report saturation.
			return drives
		}
	}
}

// ScalingPoint is one row of the scaling analysis: how many drives an
// ensemble multiple needs.
type ScalingPoint struct {
	// LoadFactor multiplies the measured load series (e.g. 2.0 models an
	// ensemble twice the measured size).
	LoadFactor float64
	// Drives is the minimal stripe width at 99.9% coverage.
	Drives int
	// PeakOccupancy is the hottest drive's worst minute at that width.
	PeakOccupancy float64
}

// ScalingTable evaluates drive needs as the ensemble grows by the given
// load factors — the §7 scaling projection.
func ScalingTable(spec DeviceSpec, imbalance float64, loads []MinuteLoad, factors []float64) []ScalingPoint {
	out := make([]ScalingPoint, 0, len(factors))
	for _, f := range factors {
		scaled := ScaleLoads(loads, f)
		drives := MinDrivesFor(spec, imbalance, scaled, 0.999)
		arr := Array{Spec: spec, Drives: drives, Imbalance: imbalance}
		peak := 0.0
		for _, l := range scaled {
			if occ := arr.Occupancy(l.ReadPages, l.WritePages); occ > peak {
				peak = occ
			}
		}
		out = append(out, ScalingPoint{LoadFactor: f, Drives: drives, PeakOccupancy: peak})
	}
	return out
}

// NetworkSpec models the SieveStore node's NICs for the paper's §3.3
// bandwidth feasibility check ("a reasonably configured node with four
// Gigabit Ethernet links").
type NetworkSpec struct {
	// Links is the number of network links.
	Links int
	// LinkMBps is each link's usable bandwidth in MB/s (1 GbE ≈ 125 MB/s
	// raw; ~117 MB/s usable).
	LinkMBps float64
}

// FourGigE returns the paper's assumed configuration.
func FourGigE() NetworkSpec { return NetworkSpec{Links: 4, LinkMBps: 117} }

// TotalMBps returns the aggregate bandwidth.
func (n NetworkSpec) TotalMBps() float64 { return float64(n.Links) * n.LinkMBps }

// Occupancy returns the fraction of a minute the NICs are busy moving the
// given byte volume (hit traffic served to clients plus allocation fills
// copied in).
func (n NetworkSpec) Occupancy(bytesInMinute float64) float64 {
	return bytesInMinute / (n.TotalMBps() * 1e6 * 60)
}

// WorstCaseSSDFraction returns the paper's §3.3 sanity check: the fraction
// of network capacity consumed if the SSD streams at its maximum sequential
// read rate ("even the maximum SSD throughput accounts for ~50% of the
// network bandwidth").
func (n NetworkSpec) WorstCaseSSDFraction(spec DeviceSpec) float64 {
	return spec.SeqReadMBps / n.TotalMBps()
}

// NetworkSeries converts an SSD page-load series into per-minute network
// occupancy (each page crosses the network once: hits outbound, allocation
// fills inbound).
func NetworkSeries(n NetworkSpec, loads []MinuteLoad) []float64 {
	out := make([]float64, len(loads))
	for i, l := range loads {
		out[i] = n.Occupancy((l.ReadPages + l.WritePages) * 4096)
	}
	return out
}

// MaxNetworkOccupancy returns the worst minute of the series.
func MaxNetworkOccupancy(n NetworkSpec, loads []MinuteLoad) float64 {
	max := 0.0
	for _, o := range NetworkSeries(n, loads) {
		if o > max {
			max = o
		}
	}
	return max
}
