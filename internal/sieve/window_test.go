package sieve

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/block"
)

// slotClock is a sieve's one-slot IMCT driven the way the sieve drives it:
// aged at each subwindow advance, then bumped in the newest subwindow's lane.
type slotClock struct{ *C }

func oneSlot(k int, subNanos int64) *slotClock {
	c, err := NewC(CConfig{IMCTSize: 1, T1: 1, T2: 1, Window: time.Duration(subNanos * int64(k)), Subwindows: k})
	if err != nil {
		panic(err)
	}
	return &slotClock{c}
}

// bump counts one miss at time t and returns the slot's window total.
func (c *slotClock) bump(t int64) int {
	c.advance(t)
	c.C.bump(0)
	return c.total(0)
}

// exactWindow is a reference implementation: it remembers every miss
// timestamp and counts those within the exact sliding window.
type exactWindow struct {
	times []int64
}

func (e *exactWindow) bump(now, windowNS int64) int {
	e.times = append(e.times, now)
	// Drop everything older than the window.
	cut := 0
	for cut < len(e.times) && e.times[cut] <= now-windowNS {
		cut++
	}
	e.times = e.times[cut:]
	return len(e.times)
}

// TestWinCounterApproximatesExactWindow checks the paper's k-subwindow
// discretization (§3.3) against the exact sliding window on random miss
// streams: the discretized count must always fall between the exact count
// over the last W-W/k (it may expire up to one subwindow early) and the
// exact count over W (it never over-counts beyond the full window... it can
// briefly retain up to one extra subwindow). Concretely we assert the
// bracketing
//
//	exact(W - W/k) ≤ windowed ≤ exact(W + W/k)
//
// which is the correctness envelope the paper's design relies on.
func TestWinCounterApproximatesExactWindow(t *testing.T) {
	const (
		k        = 4
		windowNS = int64(8 * 3600 * 1e9)
		sub      = windowNS / k
	)
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := oneSlot(k, sub)
		lower := &exactWindow{} // window W - sub
		upper := &exactWindow{} // window W + sub
		now := int64(0)
		for i := 0; i < 5000; i++ {
			// Mixed cadence: mostly short gaps, occasional long idles.
			if rng.Intn(50) == 0 {
				now += int64(rng.Int63n(3 * windowNS))
			} else {
				now += int64(rng.Int63n(sub / 2))
			}
			got := w.bump(now)
			lo := lower.bump(now, windowNS-sub)
			hi := upper.bump(now, windowNS+sub)
			if got < lo || got > hi {
				t.Fatalf("seed %d step %d: windowed count %d outside [%d,%d]",
					seed, i, got, lo, hi)
			}
		}
	}
}

// TestWinCounterNeverExceedsTotalMisses is a cheap safety property: the
// windowed count can never exceed the number of bumps.
func TestWinCounterNeverExceedsTotalMisses(t *testing.T) {
	w := oneSlot(4, 1)
	for i := 1; i <= 100; i++ {
		if got := w.bump(int64(i / 10)); got > i {
			t.Fatalf("count %d after %d bumps", got, i)
		}
	}
}

// TestWinCounterSaturation, for every k: an IMCT lane saturates at laneCap
// and an MCT lane at 65535 rather than wrap, so an IMCT total tops out at
// k·laneCap and an MCT total at k·65535, and a lane that has saturated
// still counts as one; a tracked count sticks at trackedMax, and neither
// saturation reaches the other's bits.
func TestWinCounterSaturation(t *testing.T) {
	for k := 1; k <= maxSubwindows; k++ {
		w := oneSlot(k, 1)
		last := 0
		for i := 0; i < 1000; i++ {
			last = w.bump(0)
		}
		if last != laneCap {
			t.Fatalf("k %d: IMCT count %d after 1000 bumps in one subwindow, want %d", k, last, laneCap)
		}
		w.track(0, 1)
		for win := int64(1); win < int64(k); win++ {
			for i := 0; i < 1000; i++ {
				last = w.bump(win)
			}
		}
		if last != k*laneCap || w.imct[0]>>trackedShift != 1 {
			t.Fatalf("k %d: IMCT count %d, tracked %d after k saturated subwindows, want %d and 1", k, last, w.imct[0]>>trackedShift, k*laneCap)
		}
		for i := 0; i < 20; i++ {
			w.track(0, 1)
		}
		w.track(0, -1)
		if got := w.imct[0] >> trackedShift; got != trackedMax || imctLanes(w.C, 0) != k*laneCap {
			t.Fatalf("k %d: tracked %d, lanes total %d after 21 keys tracked and one untracked, want %d and %d", k, got, imctLanes(w.C, 0), trackedMax, k*laneCap)
		}
		if got := w.bump(int64(k)); got != (k-1)*laneCap+1 {
			t.Fatalf("k %d: count %d after subwindow 0 expired, want %d", k, got, (k-1)*laneCap+1)
		}

		j := w.laneWord(w.addPage(0, 0, 0), 3)
		for i := 0; i < 70000; i++ {
			last = w.bumpLanes(j)
		}
		if last != 65535 || w.lanes[j] != 0xffff {
			t.Fatalf("k %d: MCT count %d, lane word %#x after 70000 bumps in one lane, want 65535 in lane 0", k, last, w.lanes[j])
		}
	}
}

// imctLanes sums, by a loop, the lanes of every word of the IMCT slot whose
// words start at i, lanes past k included.
func imctLanes(s *C, i int) int {
	n := 0
	for _, w := range s.imct[i : i+s.words] {
		for l := 0; l < 4; l++ {
			n += int(w >> (l * laneBits) & laneCap)
		}
	}
	return n
}

// TestIMCTTotalMatchesLoop checks, for every k, C.total's sum, which has
// no loop, after a bump, against imctLanes on random slots: lanes drawn
// from 0, 1, the cap and anything between, past lane k too, and any
// tracked count.
func TestIMCTTotalMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= maxSubwindows; k++ {
		w := oneSlot(k, 1)
		for i := 0; i < 20000; i++ {
			for j := range w.imct {
				w.imct[j] = 0
				for l := 0; l < 4; l++ {
					w.imct[j] |= uint32([]int{0, 1, laneCap, rng.Intn(laneCap + 1)}[rng.Intn(4)]) << (l * laneBits)
				}
			}
			w.imct[0] |= uint32(rng.Intn(trackedMax+1)) << trackedShift
			w.lane = uint(rng.Intn(k))
			w.C.bump(0)
			if got, want := w.total(0), imctLanes(w.C, 0); got != want {
				t.Fatalf("k %d: slot %#x bumped in lane %d totals %d, its lanes sum to %d", k, w.imct, w.lane, got, want)
			}
		}
	}
}

// lanesOf is tracked block key's k lane counts.
func lanesOf(s *C, key block.Key) []int {
	j := s.laneWord(record(s, key.Page()), int(key%block.BlocksPerPage))
	out := make([]int, s.cfg.Subwindows)
	for l := range out {
		out[l] = int(s.lanes[j+l/4] >> (l % 4 * 16) & 0xffff)
	}
	return out
}

// TestBeginAtSubwindowBoundary: a Begin one nanosecond before the newest
// subwindow's end stays in it and ages nothing; a Begin at the end enters
// the next subwindow, zeroes its lane and prunes a block idle since. Of two
// tracked blocks in one page, the pruned one leaves the page's record to
// the other.
func TestBeginAtSubwindowBoundary(t *testing.T) {
	s, err := NewC(CConfig{IMCTSize: 64, T1: 1, T2: 100, Window: 2000, Subwindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := s.Begin(0)
	for _, key := range []block.Key{42, 42, 42, 43} {
		run.Admit(key, false)
	}
	for _, c := range []struct {
		at, lastWin, next int64
		tracked           int
		lanes42           []int
	}{
		{999, 0, 1000, 2, []int{4, 0}},
		{1000, 1, 2000, 2, []int{4, 1}},
		{1999, 1, 2000, 2, []int{4, 2}},
		{2000, 2, 3000, 1, []int{1, 2}},
	} {
		s.Begin(c.at).Admit(42, false)
		if st := s.Stats(); s.lastWin != c.lastWin || s.next != c.next || st.MCTSize != c.tracked || st.Pruned != int64(2-c.tracked) || !slices.Equal(lanesOf(s, 42), c.lanes42) {
			t.Fatalf("after a miss at %d: subwindow %d ending %d, %d tracked, %d pruned, block 42 %v; want %d, %d, %d, %d, %v",
				c.at, s.lastWin, s.next, st.MCTSize, st.Pruned, lanesOf(s, 42), c.lastWin, c.next, c.tracked, 2-c.tracked, c.lanes42)
		}
	}
	if len(s.pages) != 1 || s.pages[0].mask != 1<<2 {
		t.Fatalf("records %+v, want page 40 tracking block 42 alone", s.pages)
	}
}
