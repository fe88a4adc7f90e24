package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
)

func TestSpillDisableAndProbeReenable(t *testing.T) {
	clk := newFakeClock()
	s, err := Open(testBackend(), Options{
		CacheBytes: 64 * block.Size,
		Variant:    VariantD,
		DThreshold: 3,
		Epoch:      time.Hour,
		Now:        clk.Now,
		SpillDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var spillCalls atomic.Int64
	var spillSick atomic.Bool
	spillSick.Store(true)
	testSpillFault = func() error {
		spillCalls.Add(1)
		if spillSick.Load() {
			return errors.New("test: spill device fault")
		}
		return nil
	}
	defer func() { testSpillFault = nil }()

	buf := make([]byte, block.Size)
	for i := 0; i < 3; i++ {
		if err := s.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.SpillDisables != 1 {
		t.Fatalf("SpillDisables = %d, want 1 after 3 consecutive log faults", st.SpillDisables)
	}

	// Disabled: further accesses skip the logger entirely (no probe due).
	before := spillCalls.Load()
	for i := 0; i < 5; i++ {
		if err := s.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := spillCalls.Load(); got != before {
		t.Fatalf("disabled spill still logged: %d extra calls", got-before)
	}

	// Spill device heals; the next due probe re-enables logging.
	spillSick.Store(false)
	clk.Advance(2 * time.Second)
	if err := s.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	before = spillCalls.Load()
	if err := s.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if got := spillCalls.Load(); got != before+1 {
		t.Fatal("probe success did not re-enable access logging")
	}

	// The counts logged after re-enabling still drive epoch selection.
	for i := 0; i < 4; i++ {
		if err := s.ReadAt(0, 0, buf, 2*block.Size); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RotateEpoch(); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(0, 0, 2*block.Size) {
		t.Fatal("post-re-enable accesses did not count toward the epoch selection")
	}
}

func TestSpillReenabledByRotation(t *testing.T) {
	clk := newFakeClock()
	s, err := Open(testBackend(), Options{
		CacheBytes: 64 * block.Size,
		Variant:    VariantD,
		DThreshold: 3,
		Epoch:      time.Hour,
		Now:        clk.Now,
		SpillDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	testSpillFault = func() error { return errors.New("test: spill device fault") }
	buf := make([]byte, block.Size)
	for i := 0; i < 3; i++ {
		if err := s.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	testSpillFault = nil
	if st := s.Stats(); st.SpillDisables != 1 {
		t.Fatalf("SpillDisables = %d, want 1", st.SpillDisables)
	}

	// A successful rotation resets the logs and resumes logging without
	// waiting for a probe.
	if err := s.RotateEpoch(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.ReadAt(0, 0, buf, block.Size); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RotateEpoch(); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(0, 0, block.Size) {
		t.Fatal("rotation did not re-enable access logging")
	}
}
