package ssd

import (
	"math"
	"testing"
)

func TestMinuteSeriesAccumulation(t *testing.T) {
	var m MinuteSeries
	m.AddReads(5, 10)
	m.AddReads(5, 2)
	m.AddWrites(3, 4)
	m.AddReads(-1, 100) // ignored
	loads := m.Loads(0)
	if len(loads) != 6 {
		t.Fatalf("len = %d, want 6", len(loads))
	}
	if loads[5].ReadPages != 12 || loads[3].WritePages != 4 {
		t.Errorf("loads = %+v", loads)
	}
	if loads[5].Minute != 5 {
		t.Error("minute index wrong")
	}
	var reads, writes float64
	for _, l := range loads {
		reads += l.ReadPages
		writes += l.WritePages
	}
	if reads != 12 || writes != 4 {
		t.Errorf("totals = %v,%v", reads, writes)
	}
}

func TestLoadsPadding(t *testing.T) {
	var m MinuteSeries
	m.AddWrites(2, 1)
	loads := m.Loads(10)
	if len(loads) != 10 {
		t.Fatalf("len = %d", len(loads))
	}
	for i, l := range loads {
		if l.Minute != i {
			t.Fatalf("minute %d has index %d", i, l.Minute)
		}
	}
	if loads[9].ReadPages != 0 || loads[2].WritePages != 1 {
		t.Error("padding wrong")
	}
	// Padding shorter than the active range keeps all active minutes.
	if got := m.Loads(1); len(got) != 3 {
		t.Errorf("short pad len = %d", len(got))
	}
}

func TestScaleLoads(t *testing.T) {
	var m MinuteSeries
	m.AddReads(0, 3)
	m.AddWrites(0, 2)
	scaled := ScaleLoads(m.Loads(1), 512)
	if math.Abs(scaled[0].ReadPages-1536) > 1e-9 || math.Abs(scaled[0].WritePages-1024) > 1e-9 {
		t.Errorf("scaled = %+v", scaled[0])
	}
	// Original untouched.
	if m.Loads(1)[0].ReadPages != 3 {
		t.Error("ScaleLoads mutated source")
	}
}

func TestEmptySeries(t *testing.T) {
	var m MinuteSeries
	if got := m.Loads(0); len(got) != 0 {
		t.Errorf("empty Loads = %v", got)
	}
}
