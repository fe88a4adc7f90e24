package sieve

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/block"
)

// refC is SieveStore-C as first written: a full-width last-subwindow per
// counter, one MCT probe per miss, the prune checked on every call. It is
// the oracle the packed slot, the tracked-count probe skip and the run
// entry point are checked against; it is only ever fed in-order time.
type refC struct {
	cfg     CConfig
	c       *C // for subNanos and the slot hash
	imct    []refCounter
	mct     map[block.Key]*refCounter
	lastWin int64
	stats   CStats
}

type refCounter struct {
	counts  [maxSubwindows]int
	lastWin int64
}

func (w *refCounter) bump(win int64, k int) int {
	for i := max(w.lastWin+1, win-int64(k)+1); i <= win; i++ {
		w.counts[i%int64(k)] = 0
	}
	w.lastWin = win
	w.counts[win%int64(k)] = min(w.counts[win%int64(k)]+1, 65535)
	t := 0
	for _, c := range w.counts[:k] {
		t += c
	}
	return t
}

func newRefC(t *testing.T, cfg CConfig) *refC {
	c, err := NewC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &refC{cfg: cfg, c: c, imct: make([]refCounter, cfg.IMCTSize), mct: map[block.Key]*refCounter{}}
}

func (s *refC) shouldAllocateN(acc block.Access, extra int) bool {
	k := s.cfg.Subwindows
	s.stats.Misses++
	win := acc.Time / s.c.subNanos
	if win != s.lastWin {
		s.lastWin = win
		for key, e := range s.mct {
			if win-e.lastWin >= int64(k) {
				delete(s.mct, key)
				s.stats.Pruned++
			}
		}
	}
	n := s.imct[slotOf(acc.Key, len(s.imct))].bump(win, k)
	e, tracked := s.mct[acc.Key]
	if !tracked {
		if n < s.cfg.T1 {
			return false
		}
		e = &refCounter{lastWin: win}
		s.mct[acc.Key] = e
		s.stats.Promotions++
	}
	if e.bump(win, k) < s.cfg.T2+extra {
		return false
	}
	delete(s.mct, acc.Key)
	s.stats.Allocations++
	return true
}

// TestRunMatchesSingleCallsAndReference feeds one random miss stream —
// bursts of several blocks at one instant, subwindow roll-overs, idle gaps
// longer than the window (prune), non-zero extra, and a one-slot IMCT whose
// tracked count saturates — to the reference, to a sieve called once per
// block, and to a sieve called once per burst. Decisions, counters and the
// MCT's contents must agree throughout, and every IMCT slot's tracked count
// must be exact.
func TestRunMatchesSingleCallsAndReference(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := CConfig{
			IMCTSize:   []int{1, 7, 64, 509}[seed%4],
			T1:         1 + rng.Intn(9),
			T2:         1 + rng.Intn(4),
			Window:     8000,
			Subwindows: 1 + rng.Intn(maxSubwindows),
		}
		keys := 40 + rng.Intn(600)
		ref := newRefC(t, cfg)
		single, _ := NewC(cfg)
		batched, _ := NewC(cfg)
		now := int64(0)
		for step := 0; step < 20000; step++ {
			switch rng.Intn(100) {
			case 0:
				now += rng.Int63n(3 * 8000)
			default:
				now += rng.Int63n(40)
			}
			extra := 0
			if rng.Intn(8) == 0 {
				extra = 1 + rng.Intn(3)
			}
			run := batched.Begin(now)
			for n := 1 + rng.Intn(8); n > 0; n-- {
				acc := block.Access{Time: now, Key: block.Key(rng.Intn(keys))}
				want := ref.shouldAllocateN(acc, extra)
				if got := single.ShouldAllocateN(acc, extra); got != want {
					t.Fatalf("seed %d step %d key %d: single call says %v, reference %v", seed, step, acc.Key, got, want)
				}
				if got := run.Admit(acc.Key, extra); got != want {
					t.Fatalf("seed %d step %d key %d: run says %v, reference %v", seed, step, acc.Key, got, want)
				}
			}
			if step%500 != 0 {
				continue
			}
			for _, s := range []*C{single, batched} {
				if st := s.Stats(); st != (CStats{ref.stats.Misses, ref.stats.Promotions, ref.stats.Allocations, ref.stats.Pruned, len(ref.mct)}) {
					t.Fatalf("seed %d step %d: stats %+v, reference %+v with %d tracked", seed, step, st, ref.stats, len(ref.mct))
				}
				perSlot := make([]uint64, cfg.IMCTSize)
				for key, e := range s.mct {
					r, ok := ref.mct[key]
					if !ok || !reflect.DeepEqual(r.counts[:cfg.Subwindows], widen(e.counts[:cfg.Subwindows])) {
						t.Fatalf("seed %d step %d: MCT entry %d = %v, reference %v", seed, step, key, e.counts, r)
					}
					perSlot[slotOf(key, len(s.imct))]++
				}
				for i := range s.imct {
					if got := s.imct[i].last >> winBits; got != perSlot[i] && got != trackedMax {
						t.Fatalf("seed %d step %d: slot %d counts %d tracked keys, has %d", seed, step, i, got, perSlot[i])
					}
				}
			}
		}
		if single.Stats().Pruned == 0 || single.Stats().Allocations == 0 {
			t.Fatalf("seed %d exercised no prune or no allocation: %+v", seed, single.Stats())
		}
	}
}

func widen(c []uint16) []int {
	out := make([]int, len(c))
	for i, v := range c {
		out[i] = int(v)
	}
	return out
}

// TestStaleSubwindowDoesNotRewind: a timestamp one subwindow behind the
// newest — two callers that read the clock either side of a boundary and
// reached the sieve in the other order — counts in the newest subwindow.
// Rewinding made the next in-order miss zero the live subwindow, and made
// the sieve's full MCT sweep run a second time for the same boundary.
func TestStaleSubwindowDoesNotRewind(t *testing.T) {
	var w winCounter
	for i := 0; i < 5; i++ {
		w.bump(10, 4)
	}
	w.bump(9, 4)
	if got := w.bump(10, 4); got != 7 {
		t.Errorf("bump(10)×5, bump(9), bump(10) = %d, want 7", got)
	}

	// The same through the sieve: seven misses, the sixth stamped late,
	// must admit at T2 = 7; and the idle entry pruned at the boundary is
	// pruned once.
	s, err := NewC(CConfig{IMCTSize: 64, T1: 1, T2: 7, Window: 4000, Subwindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.ShouldAllocate(block.Access{Time: 1000, Key: 99}) // tracked, then idle
	admitted := false
	for _, at := range []int64{10000, 10000, 10000, 10000, 10000, 9999, 10000} {
		admitted = s.ShouldAllocate(block.Access{Time: at, Key: 42})
	}
	if !admitted {
		t.Error("the seventh miss in one window did not admit after a stale timestamp")
	}
	if st := s.Stats(); st.Pruned != 1 || s.lastWin != 10 {
		t.Errorf("after the stale call: pruned %d, newest subwindow %d; want 1 and 10", st.Pruned, s.lastWin)
	}
}
