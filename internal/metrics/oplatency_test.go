package metrics

import (
	"testing"
	"time"
)

func TestOpLatencyBasic(t *testing.T) {
	s := OpLatencySnapshot{
		Ops:        3,
		Errors:     1,
		TotalNanos: int64(60 * time.Millisecond),
		MaxNanos:   int64(30 * time.Millisecond),
	}
	if got := s.Mean(); got != 20*time.Millisecond {
		t.Errorf("mean = %v, want 20ms", got)
	}
	if got := s.Throughput(2 * time.Second); got != 1.5 {
		t.Errorf("throughput = %v, want 1.5 ops/s", got)
	}
}

func TestOpLatencyZeroValues(t *testing.T) {
	var s OpLatencySnapshot
	if s.Mean() != 0 {
		t.Error("mean of empty snapshot should be 0")
	}
	if s.Throughput(time.Second) != 0 {
		t.Error("throughput of empty snapshot should be 0")
	}
	if s.Throughput(0) != 0 {
		t.Error("throughput over zero elapsed should be 0, not +Inf")
	}
}

func TestOpLatencySnapshotEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name     string
		s        OpLatencySnapshot
		elapsed  time.Duration
		wantMean time.Duration
		wantTput float64
	}{
		{"empty", OpLatencySnapshot{}, time.Second, 0, 0},
		{"zero elapsed", OpLatencySnapshot{Ops: 4, TotalNanos: 400}, 0, 100, 0},
		{"negative elapsed", OpLatencySnapshot{Ops: 4, TotalNanos: 400}, -time.Second, 100, 0},
		{"negative ops", OpLatencySnapshot{Ops: -3, TotalNanos: 100, Errors: -1}, time.Second, 0, 0},
		{"normal", OpLatencySnapshot{Ops: 2, Errors: 1, TotalNanos: 200}, time.Second, 100, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Mean(); got != tc.wantMean {
				t.Errorf("Mean = %v, want %v", got, tc.wantMean)
			}
			if got := tc.s.Throughput(tc.elapsed); got != tc.wantTput {
				t.Errorf("Throughput = %v, want %v", got, tc.wantTput)
			}
		})
	}
}
