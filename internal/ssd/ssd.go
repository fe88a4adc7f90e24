// Package ssd models the solid-state drive that backs the SieveStore cache:
// IOPS-based drive-occupancy accounting, drives-needed/coverage analysis,
// and write-endurance lifetime estimation, exactly as in the paper's
// methodology (§4, §5.1, §5.2).
package ssd

import (
	"math"
	"sort"
)

// DeviceSpec describes an SSD's performance and endurance envelope.
type DeviceSpec struct {
	// Name identifies the device in reports.
	Name string
	// ReadIOPS and WriteIOPS are sustained random 4 KiB operation rates.
	ReadIOPS  float64
	WriteIOPS float64
	// SeqReadMBps and SeqWriteMBps are sustained sequential bandwidths.
	SeqReadMBps  float64
	SeqWriteMBps float64
	// EnduranceBytes is the total write volume the device is rated for.
	EnduranceBytes float64
}

// IntelX25E returns the paper's reference device: Intel's X25-E Extreme
// SATA SSD — 35 000 random read IOPS, 3 300 random write IOPS, 250/170 MB/s
// sequential read/write, 1 PB write endurance (§4, §5.1).
func IntelX25E() DeviceSpec {
	return DeviceSpec{
		Name:           "Intel X25-E",
		ReadIOPS:       35000,
		WriteIOPS:      3300,
		SeqReadMBps:    250,
		SeqWriteMBps:   170,
		EnduranceBytes: 1e15,
	}
}

// Occupancy converts per-minute page-I/O counts into drive-IOPS occupancy:
// each 4 KiB read occupies the drive for 1/ReadIOPS seconds and each 4 KiB
// write for 1/WriteIOPS seconds; occupancy is the fraction of the minute
// the drive is busy (>1 means more than one drive is needed).
func (d *DeviceSpec) Occupancy(readPages, writePages float64) float64 {
	busySeconds := readPages/d.ReadIOPS + writePages/d.WriteIOPS
	return busySeconds / 60
}

// DrivesFor returns the whole number of drives needed to serve the given
// per-minute page counts: the ceiling of the occupancy, minimum 1 when
// there is any traffic.
func (d *DeviceSpec) DrivesFor(readPages, writePages float64) int {
	occ := d.Occupancy(readPages, writePages)
	if occ == 0 {
		return 0
	}
	return int(math.Ceil(occ - 1e-9))
}

// LifetimeYears returns the device lifetime implied by a steady daily write
// volume (§5.1: the X25-E endures 1 PB, so <500 M 512 B writes/day gives
// >10 years).
func (d *DeviceSpec) LifetimeYears(bytesPerDay float64) float64 {
	if bytesPerDay <= 0 {
		return math.Inf(1)
	}
	return d.EnduranceBytes / bytesPerDay / 365
}

// MinuteLoad is one minute's SSD page-level traffic.
type MinuteLoad struct {
	// Minute is the zero-based minute index within the trace.
	Minute int
	// ReadPages and WritePages count 4 KiB device operations in the minute.
	ReadPages  float64
	WritePages float64
}

// OccupancySeries computes per-minute drive occupancy for a load series.
func OccupancySeries(spec *DeviceSpec, loads []MinuteLoad) []float64 {
	out := make([]float64, len(loads))
	for i, l := range loads {
		out[i] = spec.Occupancy(l.ReadPages, l.WritePages)
	}
	return out
}

// CoveragePoint reports how many drives are needed to cover a fraction of
// the trace's minutes.
type CoveragePoint struct {
	// Coverage is the fraction of minutes fully served (e.g. 0.999).
	Coverage float64
	// Drives is the number of drives required at that coverage.
	Drives int
}

// DrivesNeeded returns, for each minute, the integral number of drives
// required, sorted ascending (the paper's Figure 9 presentation: minutes
// ordered by drive requirement, not chronologically).
func DrivesNeeded(spec *DeviceSpec, loads []MinuteLoad) []int {
	out := make([]int, len(loads))
	for i, l := range loads {
		out[i] = spec.DrivesFor(l.ReadPages, l.WritePages)
	}
	sort.Ints(out)
	return out
}

// DrivesAtCoverage returns the number of drives needed to fully serve the
// busiest (1-coverage) fraction of minutes excluded — i.e. the drive count
// at the coverage-quantile of the sorted per-minute requirement. sorted
// must be ascending (as returned by DrivesNeeded).
func DrivesAtCoverage(sorted []int, coverage float64) int {
	if len(sorted) == 0 {
		return 0
	}
	if coverage >= 1 {
		return sorted[len(sorted)-1]
	}
	if coverage < 0 {
		coverage = 0
	}
	idx := int(math.Ceil(coverage*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// CoverageTable evaluates the standard coverage points the paper quotes.
func CoverageTable(spec *DeviceSpec, loads []MinuteLoad) []CoveragePoint {
	sorted := DrivesNeeded(spec, loads)
	points := []float64{0.90, 0.99, 0.999, 1.0}
	out := make([]CoveragePoint, len(points))
	for i, p := range points {
		out[i] = CoveragePoint{Coverage: p, Drives: DrivesAtCoverage(sorted, p)}
	}
	return out
}

// FractionUnderOccupancy returns the fraction of minutes whose occupancy is
// at most limit (e.g. 1.0 → "the drive occupancy stays under 1 X% of the
// time", §5.2).
func FractionUnderOccupancy(occ []float64, limit float64) float64 {
	if len(occ) == 0 {
		return 1
	}
	n := 0
	for _, o := range occ {
		if o <= limit {
			n++
		}
	}
	return float64(n) / float64(len(occ))
}
