package ssd

import (
	"math"
	"testing"
)

func TestArrayOccupancySingleDriveMatchesSpec(t *testing.T) {
	spec := IntelX25E()
	a := Array{Spec: spec, Drives: 1, Imbalance: 1.1}
	r, w := 35000.0*30, 3300.0*10
	if got, want := a.Occupancy(r, w), spec.Occupancy(r, w); math.Abs(got-want) > 1e-12 {
		t.Errorf("single-drive occupancy %v != spec %v", got, want)
	}
}

func TestArrayOccupancyScalesWithWidth(t *testing.T) {
	spec := IntelX25E()
	load := 35000.0 * 60 * 3 // three drives' worth of reads
	a3 := Array{Spec: spec, Drives: 3, Imbalance: 1.0}
	if got := a3.Occupancy(load, 0); math.Abs(got-1) > 1e-9 {
		t.Errorf("balanced 3-drive occupancy = %v, want 1", got)
	}
	// With imbalance 1.2 the hottest drive is 20% over fair share.
	a3.Imbalance = 1.2
	if got := a3.Occupancy(load, 0); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("imbalanced occupancy = %v, want 1.2", got)
	}
	if !a3.Saturated(load, 0) {
		t.Error("imbalanced array should be saturated")
	}
}

func TestMinDrivesFor(t *testing.T) {
	spec := IntelX25E()
	loads := []MinuteLoad{
		{Minute: 0, ReadPages: 35000 * 30},     // 0.5 drive
		{Minute: 1, ReadPages: 35000 * 60 * 2}, // 2 drives
		{Minute: 2},
	}
	if got := MinDrivesFor(spec, 1.0, loads, 1.0); got != 2 {
		t.Errorf("balanced drives = %d, want 2", got)
	}
	// Imbalance forces a third drive for the peak minute.
	if got := MinDrivesFor(spec, 1.3, loads, 1.0); got != 3 {
		t.Errorf("imbalanced drives = %d, want 3", got)
	}
	// Lower coverage may ignore the peak minute.
	if got := MinDrivesFor(spec, 1.0, loads, 0.5); got != 1 {
		t.Errorf("50%% coverage drives = %d, want 1", got)
	}
	if got := MinDrivesFor(spec, 1.0, nil, 0.999); got != 1 {
		t.Errorf("empty loads = %d drives", got)
	}
}

func TestScalingTableMonotone(t *testing.T) {
	spec := IntelX25E()
	loads := []MinuteLoad{
		{Minute: 0, ReadPages: 35000 * 40, WritePages: 3300 * 5},
		{Minute: 1, ReadPages: 35000 * 20},
	}
	table := ScalingTable(spec, 1.1, loads, []float64{1, 2, 4, 8})
	if len(table) != 4 {
		t.Fatalf("rows = %d", len(table))
	}
	for i := 1; i < len(table); i++ {
		if table[i].Drives < table[i-1].Drives {
			t.Errorf("drive needs not monotone: %+v", table)
		}
	}
	for _, row := range table {
		if row.PeakOccupancy > 1+1e-9 {
			t.Errorf("scaling row leaves hottest drive saturated: %+v", row)
		}
	}
}

func TestNetworkSpec(t *testing.T) {
	n := FourGigE()
	if n.TotalMBps() != 468 {
		t.Errorf("total = %v", n.TotalMBps())
	}
	// Paper §3.3: the SSD's max sequential read rate (250 MB/s) is ≈50% of
	// a 4×GbE node's bandwidth.
	f := n.WorstCaseSSDFraction(IntelX25E())
	if f < 0.45 || f > 0.60 {
		t.Errorf("worst-case SSD fraction = %.2f, want ≈0.5", f)
	}
	// A minute of full-rate transfer saturates exactly.
	bytes := n.TotalMBps() * 1e6 * 60
	if got := n.Occupancy(bytes); math.Abs(got-1) > 1e-9 {
		t.Errorf("saturating occupancy = %v", got)
	}
}

func TestNetworkSeries(t *testing.T) {
	n := NetworkSpec{Links: 1, LinkMBps: 100}
	loads := []MinuteLoad{
		{Minute: 0, ReadPages: 100, WritePages: 50},
		{Minute: 1},
	}
	series := NetworkSeries(n, loads)
	want := 150 * 4096.0 / (100e6 * 60)
	if math.Abs(series[0]-want) > 1e-12 || series[1] != 0 {
		t.Errorf("series = %v", series)
	}
	if got := MaxNetworkOccupancy(n, loads); math.Abs(got-want) > 1e-12 {
		t.Errorf("max = %v", got)
	}
}

func TestLatencyModel(t *testing.T) {
	m := X25ELatency()
	// All misses: mean equals the HDD read latency for a pure-read mix.
	if got := m.Mean(0, 0, 100, 0); got != m.HDDRead {
		t.Errorf("all-miss mean = %v", got)
	}
	// All hits: SSD read latency.
	if got := m.Mean(100, 0, 0, 0); got != m.SSDRead {
		t.Errorf("all-hit mean = %v", got)
	}
	if got := m.Mean(0, 0, 0, 0); got != 0 {
		t.Errorf("empty mean = %v", got)
	}
	// A 35% read-hit workload: mean must sit between the extremes and the
	// speedup above 1.
	mean := m.Mean(35, 0, 65, 0)
	if mean <= m.SSDRead || mean >= m.HDDRead {
		t.Errorf("mixed mean = %v", mean)
	}
	sp := m.Speedup(35, 0, 65, 0)
	if sp < 1.3 || sp > 1.7 {
		t.Errorf("speedup = %.2f, want ≈1.53 (1/0.65 adjusted for SSD latency)", sp)
	}
	if m.Speedup(0, 0, 0, 0) != 1 {
		t.Error("empty speedup")
	}
	// Write hits are slower than read hits but still far faster than HDD.
	if m.SSDWrite <= m.SSDRead || m.SSDWrite >= m.HDDWrite/10 {
		t.Errorf("SSD write latency %v implausible", m.SSDWrite)
	}
}
