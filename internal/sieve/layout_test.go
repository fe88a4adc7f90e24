package sieve

import (
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/block"
)

// TestIMCTPageLine pins the page-major layout: an IMCT of n slots holds
// 8·⌈n/8⌉, and the eight blocks of any page land in slots line·8+b of one
// line, b their place in the page, through the slot C and SingleTier count
// in, whose ⌈k/4⌉ words follow each other. Across many pages a 4096-slot
// table uses most of its 512 lines.
func TestIMCTPageLine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{4, 8} {
		for _, n := range []int{1, 7, 8, 9, 4096} {
			c, err := NewC(CConfig{IMCTSize: n, T1: 9, T2: 4, Window: time.Hour, Subwindows: k})
			if err != nil {
				t.Fatal(err)
			}
			slots := (n + 7) / 8 * 8
			if c.slots() != slots || len(c.imct) != slots*c.words {
				t.Fatalf("k %d IMCTSize %d: table holds %d slots in %d words, want %d of %d words", k, n, c.slots(), len(c.imct), slots, c.words)
			}
			lines := map[int]bool{}
			for i := 0; i < 2000; i++ {
				page := block.MakeKey(rng.Intn(block.MaxServers), rng.Intn(block.MaxVolumes), uint64(rng.Int63n(1<<30))*block.BlocksPerPage)
				first := pageSlot(page, slots)
				if first%8 != 0 || first >= slots {
					t.Fatalf("k %d IMCTSize %d: page %v starts at slot %d, not a line of %d slots", k, n, page, first, slots)
				}
				lines[first/8] = true
				for b := 0; b < block.BlocksPerPage; b++ {
					if got := c.slot(page + block.Key(b)); got != (first+b)*c.words {
						t.Fatalf("k %d IMCTSize %d: block %d of page %v starts at word %d, not slot %d's", k, n, b, page, got, first+b)
					}
				}
			}
			if slots == 4096 && len(lines) < 400 {
				t.Errorf("k %d: 2000 pages used %d of 512 lines", k, len(lines))
			}
		}
	}
}

// TestIMCTFootprint pins the IMCT's size to k: 4 bytes a slot, a 32-byte
// line a page, at k ≤ 4, and 8 bytes a slot, a 64-byte line, at k ≤ 8.
func TestIMCTFootprint(t *testing.T) {
	for k := 1; k <= maxSubwindows; k++ {
		c, err := NewC(CConfig{IMCTSize: 4096, T1: 9, T2: 4, Window: time.Hour, Subwindows: k})
		if err != nil {
			t.Fatal(err)
		}
		want := 4
		if k > 4 {
			want = 8
		}
		if per := cap(c.imct) * int(unsafe.Sizeof(c.imct[0])) / 4096; per != want {
			t.Errorf("k %d: %d bytes an IMCT slot, want %d", k, per, want)
		}
	}
}

// mctBytes is what s's MCT holds, spare capacity included: its page
// records, its lane slab and its page index.
func mctBytes(s *C) int {
	return cap(s.pages)*int(unsafe.Sizeof(mctPage{})) + cap(s.lanes)*8 + cap(s.index)*4
}

// TestMCTFootprint pins the MCT's size at the paper's k = 4: on a stream of
// whole missed pages, which promote a page's blocks together, its records,
// lanes and index, spare capacity included, cost at most 16 bytes per
// tracked block — a 16-byte record and one lane word a block, 80 B a page,
// and under 16 B of index a page. 4096 pages alias eight to a line of a
// 4096-slot IMCT, so the second round of misses promotes and T2 = 4 keeps
// the blocks tracked through the last.
func TestMCTFootprint(t *testing.T) {
	s, err := NewC(CConfig{IMCTSize: 4096, T1: 9, T2: 4, Window: time.Hour, Subwindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	const pages = 4096
	for round := 0; round < 3; round++ {
		for p := 0; p < pages; p++ {
			run := s.Begin(int64(round*pages + p))
			key := block.MakeKey(0, 0, uint64(p)*block.BlocksPerPage)
			for b := block.Key(0); b < block.BlocksPerPage; b++ {
				run.Admit(key+b, false)
			}
			tracked := s.Stats().MCTSize
			if tracked < 2*pages || p%256 != 0 {
				continue
			}
			if per := mctBytes(s) / tracked; per > 16 {
				t.Fatalf("round %d page %d: %d records (capacity %d, %d lane words, %d index slots) for %d tracked blocks: %d B each",
					round, p, len(s.pages), cap(s.pages), cap(s.lanes), len(s.index), tracked, per)
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
// subwindow for the first window, four thousand after it. The MCT must
// follow the tracked set down: at every Begin, within the four times the
// live records that Begin's shrink allows. A record's capacity costs its 16
// bytes, 64 of lanes and under 16 of index — which holds under four slots
// for each of the most records since it was last built, and those never
// exceed the capacity — so that is 4·96/8 = 48 bytes per tracked block. (A
// steady 16 bytes per block, as the stream above holds, cannot be held
// here: a tracked set that falls over several subwindows stays above a
// quarter of the peak capacity for some of them.)
func testMCTFootprintChurn(t *testing.T) {
	s, err := NewC(CConfig{IMCTSize: 4096, T1: 9, T2: 4, Window: time.Hour, Subwindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	const rank = 1 << 14
	sub := int64(time.Hour) / 4
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
			if tracked > 0 && mctBytes(s)/tracked > 48 {
				t.Fatalf("subwindow %d: %d records (capacity %d, %d lane words, %d index slots) for %d tracked blocks: %d B each, want ≤ 48",
					j, len(s.pages), cap(s.pages), cap(s.lanes), len(s.index), tracked, mctBytes(s)/tracked)
			}
			key := block.MakeKey(0, 0, (z.Uint64()+uint64(j)*rank)*block.BlocksPerPage)
			for b := block.Key(0); b < block.BlocksPerPage; b++ {
				run.Admit(key+b, false)
			}
		}
	}
	if tracked := s.Stats().MCTSize; tracked == 0 || peak < 4*tracked {
		t.Fatalf("tracked %d blocks at the end, %d at the peak: want a fall of 4× or more", tracked, peak)
	}
	checkIndex(t, s)
}

// TestPageIndexMatchesModel is checkIndexModel on twenty random streams,
// which between them wrap a probe run past the index's end.
func TestPageIndexMatchesModel(t *testing.T) {
	wrapped := 0
	for seed := int64(0); seed < 20; seed++ {
		ops := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(ops)
		wrapped += checkIndexModel(t, ops)
	}
	if wrapped == 0 {
		t.Fatal("no probe run wrapped past the index's end")
	}
}

// FuzzPageIndexMatchesModel is checkIndexModel on a stream the fuzzer picks.
func FuzzPageIndexMatchesModel(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		ops := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { checkIndexModel(t, ops) })
}

// checkIndexModel drives a sieve's page records and index against a map
// from page to the mark its lanes carry. Each two bytes of ops are one
// operation on one of 256 pages: addPage (insert), dropPage (the
// swap-remove, relocating the last record, its lanes and its entry), or
// Begin's shrink (reallocate and reindex, to as few as two slots). After
// each, every page is looked up, the index checked (checkIndex) and each
// record's lanes must be its own. It returns how many records it saw sit
// before their home slot, their probe run wrapped past the index's end.
func checkIndexModel(t testing.TB, ops []byte) (wrapped int) {
	s, err := NewC(CConfig{IMCTSize: 64, T1: 1, T2: 1, Window: 8000, Subwindows: 8})
	if err != nil {
		t.Fatal(err)
	}
	model := map[block.Key]uint64{}
	for n := uint64(1); len(ops) >= 2; ops, n = ops[2:], n+1 {
		page := block.MakeKey(int(ops[1]>>6), 0, uint64(ops[1]&63)*block.BlocksPerPage)
		rec, mark := record(s, page), model[page]
		if rec >= 0 != (mark != 0) {
			t.Fatalf("page %d: record %d, in the model %v", page, rec, mark != 0)
		}
		switch {
		case ops[0]%8 < 4 && mark == 0:
			i := s.addPage(page, pageHash(page), lineOf(pageHash(page), len(s.imct)))
			s.lanes[s.laneWord(i, block.BlocksPerPage-1)+1] = n
			model[page] = n
		case ops[0]%8 < 7 && mark != 0:
			s.dropPage(rec)
			delete(model, page)
		case ops[0]%8 == 7:
			s.pages, s.lanes = slices.Clone(s.pages), slices.Clone(s.lanes)
			s.reindex()
		}
		checkIndex(t, s)
		for page, mark := range model {
			rec := record(s, page)
			if rec < 0 {
				t.Fatalf("page %d is not found", page)
			}
			words := s.lanes[s.laneWord(rec, 0):s.laneWord(rec+1, 0)]
			if words[len(words)-1] != mark || slices.ContainsFunc(words[:len(words)-1], func(w uint64) bool { return w != 0 }) {
				t.Fatalf("page %d's record %d carries lanes %#x, want %#x in the last word alone", page, rec, words, mark)
			}
			if s.find(page, pageHash(page)) < s.home(pageHash(page)) {
				wrapped++
			}
		}
		if len(model) != len(s.pages) {
			t.Fatalf("%d records for %d pages", len(s.pages), len(model))
		}
	}
	return wrapped
}
