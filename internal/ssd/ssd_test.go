package ssd

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIntelX25ESpec(t *testing.T) {
	d := IntelX25E()
	// The paper derives 140 MB/s random read and 13.2 MB/s random write
	// from the IOPS ratings, a tighter bound than the sequential ones —
	// which is why occupancy is charged per 4 KiB operation.
	if got := d.ReadIOPS * 4096 / 1e6; math.Abs(got-143.4) > 1 {
		t.Errorf("random read = %.1f MB/s, want ≈143 (paper rounds to 140)", got)
	}
	if got := d.WriteIOPS * 4096 / 1e6; math.Abs(got-13.5) > 0.5 {
		t.Errorf("random write = %.1f MB/s, want ≈13.2", got)
	}
}

func TestOccupancy(t *testing.T) {
	d := IntelX25E()
	// A full minute of reads at rated IOPS exactly saturates one drive.
	if got := d.Occupancy(35000*60, 0); math.Abs(got-1) > 1e-9 {
		t.Errorf("read-saturated occupancy = %v", got)
	}
	if got := d.Occupancy(0, 3300*60); math.Abs(got-1) > 1e-9 {
		t.Errorf("write-saturated occupancy = %v", got)
	}
	// Mixed load adds linearly.
	if got := d.Occupancy(35000*30, 3300*30); math.Abs(got-1) > 1e-9 {
		t.Errorf("mixed occupancy = %v", got)
	}
	if got := d.Occupancy(0, 0); got != 0 {
		t.Errorf("idle occupancy = %v", got)
	}
}

func TestDrivesFor(t *testing.T) {
	d := IntelX25E()
	cases := []struct {
		r, w   float64
		drives int
	}{
		{0, 0, 0},
		{1, 0, 1},
		{35000 * 60, 0, 1},
		{35000 * 60, 1000, 2},
		{35000 * 60 * 6.5, 0, 7},
	}
	for _, c := range cases {
		if got := d.DrivesFor(c.r, c.w); got != c.drives {
			t.Errorf("DrivesFor(%v,%v) = %d, want %d", c.r, c.w, got, c.drives)
		}
	}
}

func TestDrivesForIsCeilingOfOccupancy(t *testing.T) {
	d := IntelX25E()
	f := func(r, w uint32) bool {
		rp, wp := float64(r%100_000_000), float64(w%10_000_000)
		occ := d.Occupancy(rp, wp)
		drives := d.DrivesFor(rp, wp)
		if occ == 0 {
			return drives == 0
		}
		return float64(drives) >= occ-1e-9 && float64(drives-1) < occ
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLifetimeYears(t *testing.T) {
	d := IntelX25E()
	// Paper §5.1: ≤500 M 512 B writes/day → ≥10 years on a 1 PB-endurance
	// drive. 1e15 / (5e8·512) / 365 = 10.7 years.
	daily := 5e8 * 512.0
	if got := d.LifetimeYears(daily); got < 10 || got > 11 {
		t.Errorf("LifetimeYears = %.2f, want ≈10.7", got)
	}
	if !math.IsInf(d.LifetimeYears(0), 1) {
		t.Error("zero writes should give infinite lifetime")
	}
}

func TestOccupancySeriesAndCoverage(t *testing.T) {
	d := IntelX25E()
	loads := []MinuteLoad{
		{Minute: 0, ReadPages: 1000},                        // tiny
		{Minute: 1, ReadPages: 35000 * 60},                  // exactly 1 drive
		{Minute: 2, ReadPages: 35000 * 90},                  // 1.5 drives
		{Minute: 3, WritePages: 3300 * 60 * 3.2},            // 4 drives
		{Minute: 4, ReadPages: 35000 * 30, WritePages: 100}, // <1
		{Minute: 5},                                           // idle
		{Minute: 6, ReadPages: 35000 * 15},                    // <1
		{Minute: 7, ReadPages: 100, WritePages: 50},           // <1
		{Minute: 8, ReadPages: 35000 * 59, WritePages: 0},     // <1
		{Minute: 9, ReadPages: 35000 * 60, WritePages: 3 * 9}, // barely 2
	}
	occ := OccupancySeries(&d, loads)
	if len(occ) != len(loads) {
		t.Fatal("series length")
	}
	sorted := DrivesNeeded(&d, loads)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			t.Fatal("DrivesNeeded not sorted")
		}
	}
	if got := DrivesAtCoverage(sorted, 1.0); got != 4 {
		t.Errorf("100%% coverage = %d drives, want 4", got)
	}
	// 90% coverage tolerates the worst minute (the 4-drive one).
	if got := DrivesAtCoverage(sorted, 0.9); got != 2 {
		t.Errorf("90%% coverage = %d drives, want 2", got)
	}
	if got := DrivesAtCoverage(sorted, 0.5); got != 1 {
		t.Errorf("50%% coverage = %d drives, want 1", got)
	}
	if got := FractionUnderOccupancy(occ, 1.0); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("FractionUnderOccupancy(1.0) = %v, want 0.7", got)
	}
	table := CoverageTable(&d, loads)
	if len(table) != 4 || table[3].Coverage != 1.0 || table[3].Drives != 4 {
		t.Errorf("CoverageTable = %+v", table)
	}
}

func TestDrivesAtCoverageEdges(t *testing.T) {
	if DrivesAtCoverage(nil, 0.999) != 0 {
		t.Error("empty series should need 0 drives")
	}
	sorted := []int{1, 1, 1, 2}
	if got := DrivesAtCoverage(sorted, -1); got != 1 {
		t.Errorf("negative coverage = %d", got)
	}
	if got := DrivesAtCoverage(sorted, 2); got != 2 {
		t.Errorf("over-unity coverage = %d", got)
	}
	if FractionUnderOccupancy(nil, 1) != 1 {
		t.Error("empty occupancy should be fully under limit")
	}
}
