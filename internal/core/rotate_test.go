package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/store"
)

// TestManualRotateDoesNotDoubleFire reproduces a subtle scheduling bug: a
// manual RotateEpoch just before the scheduled boundary must restart the
// epoch schedule. Otherwise the next access would trigger the *scheduled*
// rotation over the freshly-reset (empty) logs and evict everything that
// the manual rotation just moved in.
func TestManualRotateDoesNotDoubleFire(t *testing.T) {
	clk := newFakeClock()
	s, err := Open(testBackend(), Options{
		CacheBytes: 64 * 512,
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
	buf := make([]byte, 512)
	for i := 0; i < 5; i++ {
		if err := s.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Manual rotation one second before the scheduled boundary.
	clk.Advance(time.Hour - time.Second)
	if err := s.RotateEpoch(); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(0, 0, 0) {
		t.Fatal("manual rotation did not install the hot block")
	}
	// Cross the original boundary; the next access must NOT wipe the set.
	clk.Advance(2 * time.Second)
	if err := s.ReadAt(0, 0, buf, 512); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(0, 0, 0) {
		t.Fatal("scheduled rotation double-fired over empty logs and evicted the hot block")
	}
	if got := s.Stats().Epochs; got != 1 {
		t.Errorf("epochs = %d, want 1", got)
	}
	// A full epoch after the manual rotation, the schedule resumes.
	for i := 0; i < 4; i++ {
		if err := s.ReadAt(0, 0, buf, 1024); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Hour)
	if err := s.ReadAt(0, 0, buf, 2048); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Epochs; got != 2 {
		t.Errorf("epochs after resumed schedule = %d, want 2", got)
	}
	if !s.Contains(0, 0, 1024) {
		t.Error("second epoch's hot block not installed")
	}
}

// TestRotationSkipIsPerBlock: a write or an invalidation landing while an
// epoch transition stages keeps only its own block out of the commit. With
// the rotation's batch fetch of a selected page held in the backend, one
// block of the page is written (or invalidated); after the commit that
// block is not installed from the fetch, which predates it, and its seven
// page-mates are. A skip that widened to the page would move how many
// allocation-writes SieveStore-D does.
func TestRotationSkipIsPerBlock(t *testing.T) {
	const touched = 3
	for _, tc := range []struct {
		name  string
		stage func(s *Store, mem *store.Mem) error
	}{
		{"write", func(s *Store, _ *store.Mem) error {
			return s.WriteAt(0, 0, bytes.Repeat([]byte{0x6B}, block.Size), touched*block.Size)
		}},
		{"invalidate", func(s *Store, mem *store.Mem) error {
			if err := mem.WriteAt(0, 0, bytes.Repeat([]byte{0x6B}, block.Size), touched*block.Size); err != nil {
				return err
			}
			_, err := s.Invalidate(0, 0, touched*block.Size, block.Size)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := store.NewMem()
			mem.AddVolume(0, 0, 1<<20)
			gate := newGateBackend(mem)
			clk := newFakeClock()
			s := openD(t, clk, gate, 2, t.TempDir())
			close(gate.release) // open for the warm-up
			page := make([]byte, block.PageSize)
			for i := 0; i < 2; i++ { // every block of page 0 reaches the threshold
				if err := s.ReadAt(0, 0, page, 0); err != nil {
					t.Fatal(err)
				}
			}
			gate.release = make(chan struct{})
			gate.drain()
			clk.Advance(time.Hour + time.Minute)

			done := make(chan error, 1)
			go func() { done <- s.ReadAt(0, 0, make([]byte, block.Size), 64*block.Size) }() // trips the rotation
			select {
			case <-gate.entered: // the batch fetch of page 0 is in the air
			case <-time.After(5 * time.Second):
				t.Fatal("rotation never reached the backend")
			}
			if err := tc.stage(s, mem); err != nil {
				t.Fatal(err)
			}
			close(gate.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			for b := uint64(0); b < block.BlocksPerPage; b++ {
				if got := s.Contains(0, 0, b*block.Size); got != (b != touched) {
					t.Errorf("block %d resident = %v after the commit", b, got)
				}
			}
			if st := s.Stats(); st.Epochs != 1 || st.EpochMoves != block.BlocksPerPage-1 {
				t.Errorf("Epochs %d, EpochMoves %d; want 1 and %d", st.Epochs, st.EpochMoves, block.BlocksPerPage-1)
			}
			one := make([]byte, block.Size)
			if err := s.ReadAt(0, 0, one, touched*block.Size); err != nil || one[0] != 0x6B {
				t.Errorf("block %d reads %#x, %v; want the bytes staged during the rotation", touched, one[0], err)
			}
		})
	}
}
