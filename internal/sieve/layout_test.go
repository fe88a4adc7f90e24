package sieve

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/block"
)

// TestIMCTPageLine pins the page-major layout: an IMCT of n slots holds
// 8·⌈n/8⌉, and the eight blocks of any page land in slots line·8+b of one
// line, b their place in the page, through the slot C and SingleTier count
// in. Across many pages a 4096-slot table uses most of its 512 lines.
func TestIMCTPageLine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 8, 9, 4096} {
		c, err := NewC(CConfig{IMCTSize: n, T1: 9, T2: 4, Window: time.Hour, Subwindows: 4})
		if err != nil {
			t.Fatal(err)
		}
		if want := (n + 7) / 8 * 8; len(c.imct) != want {
			t.Fatalf("IMCTSize %d: table holds %d slots, want %d", n, len(c.imct), want)
		}
		lines := map[int]bool{}
		for i := 0; i < 2000; i++ {
			page := block.MakeKey(rng.Intn(block.MaxServers), rng.Intn(block.MaxVolumes), uint64(rng.Int63n(1<<30))*block.BlocksPerPage)
			first := pageSlot(page, len(c.imct))
			if first%8 != 0 || first >= len(c.imct) {
				t.Fatalf("IMCTSize %d: page %v starts at slot %d, not a line of %d slots", n, page, first, len(c.imct))
			}
			lines[first/8] = true
			for b := 0; b < block.BlocksPerPage; b++ {
				if got := c.slot(page + block.Key(b)); got != &c.imct[first+b] {
					t.Fatalf("IMCTSize %d: block %d of page %v is not in slot %d", n, b, page, first+b)
				}
			}
		}
		if len(c.imct) == 4096 && len(lines) < 400 {
			t.Errorf("2000 pages used %d of 512 lines", len(lines))
		}
	}
}

// TestMCTFootprint pins the page-major MCT's size: on a stream of whole
// missed pages, which promote a page's blocks together, its page records,
// spare capacity included, cost at most 32 bytes per tracked block — against
// a 24-byte entry plus a map slot per block keyed by block. 4096 pages
// alias eight to a line of a 4096-slot IMCT, so the second round of misses
// promotes and T2 = 4 keeps the blocks tracked through the last.
func TestMCTFootprint(t *testing.T) {
	s, err := NewC(CConfig{IMCTSize: 4096, T1: 9, T2: 4, Window: time.Hour, Subwindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	const pages = 4096
	size := int(unsafe.Sizeof(mctPage{}))
	for round := 0; round < 3; round++ {
		for p := 0; p < pages; p++ {
			run := s.Begin(int64(round*pages + p))
			key := block.MakeKey(0, 0, uint64(p)*block.BlocksPerPage)
			for b := block.Key(0); b < block.BlocksPerPage; b++ {
				run.Admit(key+b, 0)
			}
			tracked := s.Stats().MCTSize
			if tracked < 2*pages || p%256 != 0 {
				continue
			}
			if per := cap(s.pages) * size / tracked; per > 32 {
				t.Fatalf("round %d page %d: %d records (capacity %d) of %d B for %d tracked blocks: %d B each", round, p, len(s.pages), cap(s.pages), size, tracked, per)
			}
		}
	}
	if st := s.Stats(); st.MCTSize < 6*pages || st.Allocations != 0 {
		t.Fatalf("the stream tracked %d blocks and admitted %d, want ≥ %d and none", st.MCTSize, st.Allocations, 6*pages)
	}
	t.Run("churn", testMCTFootprintChurn)
}

// testMCTFootprintChurn feeds a churning Zipf stream of whole missed pages:
// the hot set moves to fresh pages every subwindow, forty thousand misses a
// subwindow for the first window, four thousand after it. The records'
// capacity must follow the tracked set down: at every Begin, within the
// four times the live records that Begin's shrink allows, which is
// 4·144/8 = 72 bytes per tracked block. (A steady 32 bytes per
// block, as the stream above holds, cannot be held here: a tracked set
// that falls over several subwindows stays above a quarter of the peak
// capacity for some of them.)
func testMCTFootprintChurn(t *testing.T) {
	s, err := NewC(CConfig{IMCTSize: 4096, T1: 9, T2: 4, Window: time.Hour, Subwindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	const rank = 1 << 14
	size, sub := int(unsafe.Sizeof(mctPage{})), int64(time.Hour)/4
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, rank-1)
	peak := 0
	for j := int64(0); j < 20; j++ {
		n := int64(4000)
		if j < 4 {
			n = 40000
		}
		for i := int64(0); i < n; i++ {
			run := s.Begin(j*sub + i*sub/n)
			tracked := s.Stats().MCTSize
			peak = max(peak, tracked)
			if tracked > 0 && cap(s.pages)*size/tracked > 4*size/block.BlocksPerPage {
				t.Fatalf("subwindow %d: %d records (capacity %d) for %d tracked blocks: %d B each, want ≤ %d",
					j, len(s.pages), cap(s.pages), tracked, cap(s.pages)*size/tracked, 4*size/block.BlocksPerPage)
			}
			key := block.MakeKey(0, 0, (z.Uint64()+uint64(j)*rank)*block.BlocksPerPage)
			for b := block.Key(0); b < block.BlocksPerPage; b++ {
				run.Admit(key+b, 0)
			}
		}
	}
	if tracked := s.Stats().MCTSize; tracked == 0 || peak < 4*tracked || len(s.mct) != len(s.pages) {
		t.Fatalf("tracked %d blocks at the end, %d at the peak, map %d of %d records: want a fall of 4× or more, one map entry a record",
			tracked, peak, len(s.mct), len(s.pages))
	}
}
