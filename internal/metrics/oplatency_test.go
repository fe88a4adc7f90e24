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
}

func TestOpLatencyZeroValues(t *testing.T) {
	var s OpLatencySnapshot
	if s.Mean() != 0 {
		t.Error("mean of empty snapshot should be 0")
	}
}

func TestOpLatencySnapshotEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name     string
		s        OpLatencySnapshot
		wantMean time.Duration
	}{
		{"empty", OpLatencySnapshot{}, 0},
		{"negative ops", OpLatencySnapshot{Ops: -3, TotalNanos: 100, Errors: -1}, 0},
		{"normal", OpLatencySnapshot{Ops: 2, Errors: 1, TotalNanos: 200}, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Mean(); got != tc.wantMean {
				t.Errorf("Mean = %v, want %v", got, tc.wantMean)
			}
		})
	}
}
