package sieve

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/block"
)

// refC is SieveStore-C as first written: a full-width last-subwindow per
// counter, counters capped at 65535, one MCT probe per miss, the prune
// checked on every call. It is the oracle the packed slot and its lane cap,
// the page-major MCT, the tracked-count probe skip, the per-advance sweep
// and the run entry point are checked against; it is only ever fed
// in-order time.
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

// age zeroes the lanes of the subwindows since the counter's last, up to
// win, and makes win its last.
func (w *refCounter) age(win int64, k int) {
	for i := max(w.lastWin+1, win-int64(k)+1); i <= win; i++ {
		w.counts[i%int64(k)] = 0
	}
	w.lastWin = win
}

func (w *refCounter) bump(win int64, k int) int {
	w.age(win, k)
	w.counts[win%int64(k)] = min(w.counts[win%int64(k)]+1, 65535)
	t := 0
	for _, c := range w.counts[:k] {
		t += c
	}
	return t
}

func newRefC(t testing.TB, cfg CConfig) *refC {
	c, err := NewC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &refC{cfg: cfg, c: c, imct: make([]refCounter, c.slots()), mct: map[block.Key]*refCounter{}}
}

func (s *refC) shouldAllocateN(acc block.Access, deny bool) bool {
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
	n := s.imct[pageSlot(acc.Key, len(s.imct))].bump(win, k)
	e, tracked := s.mct[acc.Key]
	if !tracked {
		if n < s.cfg.T1 {
			return false
		}
		e = &refCounter{lastWin: win}
		s.mct[acc.Key] = e
		s.stats.Promotions++
	}
	if e.bump(win, k) < s.cfg.T2 || deny {
		return false
	}
	delete(s.mct, acc.Key)
	s.stats.Allocations++
	return true
}

// refSingle is SingleTier as first written: refC's counters, each aged
// lazily by its own last subwindow, against T1+T2.
func refSingle(cfg CConfig, c *C) func(block.Access) bool {
	imct := make([]refCounter, c.slots())
	return func(acc block.Access) bool {
		return imct[pageSlot(acc.Key, len(imct))].bump(acc.Time/c.subNanos, cfg.Subwindows) >= cfg.T1+cfg.T2
	}
}

// step is one instant of a miss stream: how far the clock moves before it,
// the blocks missed at that instant, and whether they are denied.
type step struct {
	dt   int64
	keys []block.Key
	deny bool
}

// randomSteps draws n steps over keys blocks: bursts of up to eight blocks
// at one instant, subwindow roll-overs, idle gaps of up to three windows
// (prune), a rare jump of ~2^40 ns — ≫ 2^16 subwindows — and a denied step
// one in eight.
func randomSteps(rng *rand.Rand, n, keys int) []step {
	steps := make([]step, n)
	for i := range steps {
		st := &steps[i]
		switch r := rng.Intn(1000); {
		case r == 0:
			st.dt = 1<<40 + rng.Int63n(1<<40)
		case r < 10:
			st.dt = rng.Int63n(3 * 8000)
		default:
			st.dt = rng.Int63n(40)
		}
		st.deny = rng.Intn(8) == 0
		for b := 1 + rng.Intn(8); b > 0; b-- {
			st.keys = append(st.keys, block.Key(rng.Intn(keys)))
		}
	}
	return steps
}

// checkAgainstReference feeds steps to the reference, to a sieve called once
// per block and to a sieve called once per step, and to SingleTier, one run
// a step, beside refSingle when T1+T2 is within the lane cap. Decisions, counters and the
// MCT's contents must agree throughout, and both sieves' page records must
// keep checkPages' invariants. It returns the sieve's final counters.
func checkAgainstReference(t testing.TB, cfg CConfig, steps []step) CStats {
	ref := newRefC(t, cfg)
	single, _ := NewC(cfg)
	batched, _ := NewC(cfg)
	var one *SingleTier
	var oneRef func(block.Access) bool
	if cfg.T1+cfg.T2 <= laneCap {
		one, _ = NewSingleTier(cfg)
		oneRef = refSingle(cfg, ref.c)
	}
	now := int64(0)
	for i, st := range steps {
		now += st.dt
		run := batched.Begin(now)
		var oneWant []int
		for j, key := range st.keys {
			acc := block.Access{Time: now, Key: key}
			want := ref.shouldAllocateN(acc, st.deny)
			if got := single.Begin(now).Admit(key, st.deny); got != want {
				t.Fatalf("%+v step %d key %d: single call says %v, reference %v", cfg, i, key, got, want)
			}
			if got := run.Admit(key, st.deny); got != want {
				t.Fatalf("%+v step %d key %d: run says %v, reference %v", cfg, i, key, got, want)
			}
			if one != nil && oneRef(acc) {
				oneWant = append(oneWant, j)
			}
		}
		if one != nil {
			if got := one.AdmitRun(now, block.Read, st.keys, nil); !slices.Equal(got, oneWant) {
				t.Fatalf("%+v step %d: SingleTier admits %v, its reference %v", cfg, i, got, oneWant)
			}
		}
		if i%500 != 0 && i != len(steps)-1 {
			continue
		}
		for _, s := range []*C{single, batched} {
			if st := s.Stats(); st != (CStats{ref.stats.Misses, ref.stats.Promotions, ref.stats.Allocations, ref.stats.Pruned, len(ref.mct)}) {
				t.Fatalf("%+v step %d: stats %+v, reference %+v with %d tracked", cfg, i, st, ref.stats, len(ref.mct))
			}
			checkPages(t, s, ref, cfg, i)
		}
	}
	return single.Stats()
}

// checkPages checks s's page records at step i: the index holds them
// (checkIndex), each tracks a block, a record's line is its page's, its
// tracked blocks' lane words hold exactly the reference's counts from now and
// its untracked blocks' words nothing, the tracked blocks number
// Stats().MCTSize and each IMCT slot's tracked count, and the cached page's
// hash, line and record are its own.
func checkPages(t testing.TB, s *C, ref *refC, cfg CConfig, i int) {
	t.Helper()
	checkIndex(t, s)
	if len(s.lanes) != len(s.pages)*block.BlocksPerPage*s.words {
		t.Fatalf("%+v step %d: %d lane words for %d records of %d words a block", cfg, i, len(s.lanes), len(s.pages), s.words)
	}
	tracked, perSlot := 0, make([]uint32, s.slots())
	for j, p := range s.pages {
		if p.mask == 0 || p.page != p.page.Page() || int(p.line) != lineOf(pageHash(p.page), s.slots()) {
			t.Fatalf("%+v step %d: record %d = {page %d line %d mask %#x}, line %d", cfg, i, j, p.page, p.line, p.mask, lineOf(pageHash(p.page), s.slots()))
		}
		tracked += bits.OnesCount8(p.mask)
		for b := 0; b < block.BlocksPerPage; b++ {
			key := p.page + block.Key(b)
			got := s.lanes[s.laneWord(int32(j), b):][:s.words]
			want := make([]uint64, s.words)
			if p.mask>>b&1 != 0 {
				r, ok := ref.mct[key]
				if !ok {
					t.Fatalf("%+v step %d: MCT block %d = %#x, untracked in the reference", cfg, i, key, got)
				}
				// The reference ages lazily; compare its view from now.
				aged := *r
				aged.age(ref.lastWin, cfg.Subwindows)
				for l, c := range aged.counts[:cfg.Subwindows] {
					want[l/4] |= uint64(c) << (l % 4 * 16)
				}
				perSlot[int(p.line)+b]++
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%+v step %d: MCT block %d lane words %#x, want %#x", cfg, i, key, got, want)
			}
		}
	}
	if tracked != s.Stats().MCTSize {
		t.Fatalf("%+v step %d: records track %d blocks, MCTSize %d", cfg, i, tracked, s.Stats().MCTSize)
	}
	for j, w := range s.imct {
		if got := w >> trackedShift; j%s.words != 0 && got != 0 || j%s.words == 0 && got != perSlot[j/s.words] && got != trackedMax {
			t.Fatalf("%+v step %d: word %d of slot %d counts %d tracked keys, has %d", cfg, i, j%s.words, j/s.words, got, perSlot[j/s.words])
		}
	}
	rec := record(s, s.hotPage)
	if s.hotHash != pageHash(s.hotPage) || s.hotLine != lineOf(pageHash(s.hotPage), s.slots()) || s.hotRec >= 0 && rec != s.hotRec || s.hotRec == noRecord && rec != noRecord {
		t.Fatalf("%+v step %d: cached page %d, hash %#x, line %d, record %d is stale", cfg, i, s.hotPage, s.hotHash, s.hotLine, s.hotRec)
	}
}

// record is page's record number in s, as its index gives it, or noRecord.
func record(s *C, page block.Key) int32 { return s.index[s.find(page, pageHash(page))] - 1 }

// checkIndex checks s's page index: a power of two at most half full, its
// entries as many as the records, and each record found at its own entry.
func checkIndex(t testing.TB, s *C) {
	t.Helper()
	n := len(s.index)
	if n&(n-1) != 0 || 2*len(s.pages) > n {
		t.Fatalf("index of %d slots for %d records: want a power of two, at most half full", n, len(s.pages))
	}
	entries := 0
	for _, r := range s.index {
		if r != 0 {
			entries++
		}
	}
	if entries != len(s.pages) {
		t.Fatalf("index holds %d entries for %d records", entries, len(s.pages))
	}
	for j, p := range s.pages {
		if got := record(s, p.page); got != int32(j) {
			t.Fatalf("record %d (page %d) is found as record %d", j, p.page, got)
		}
	}
}

// referenceConfig is seed's configuration for the reference tests: k in
// 1–8 and T1 from 1 to 9, or, one seed in four, T1 near the lane cap over a
// one- or seven-slot IMCT, which are hot enough to reach it (the one-slot
// IMCT saturates its lanes).
func referenceConfig(seed int64, rng *rand.Rand) CConfig {
	cfg := CConfig{
		IMCTSize:   []int{1, 7, 64, 509}[seed%4],
		T1:         1 + rng.Intn(9),
		T2:         1 + rng.Intn(4),
		Window:     8000,
		Subwindows: 1 + rng.Intn(maxSubwindows),
	}
	if seed%8 < 2 {
		cfg.T1 = laneCap - rng.Intn(8)
	}
	return cfg
}

// TestRunMatchesSingleCallsAndReference runs checkAgainstReference over 24
// random configurations and streams, including a one-slot IMCT whose lanes
// and tracked count saturate.
func TestRunMatchesSingleCallsAndReference(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := referenceConfig(seed, rng)
		st := checkAgainstReference(t, cfg, randomSteps(rng, 20000, 40+rng.Intn(600)))
		if st.Pruned == 0 || st.Allocations == 0 {
			t.Fatalf("seed %d exercised no prune or no allocation: %+v", seed, st)
		}
	}
}

// FuzzSieveMatchesReference is checkAgainstReference on a configuration
// and a miss stream the fuzzer picks: each four bytes of ops are one step —
// clock advance, key, burst length and key stride, whose top three bits
// deny the step when all zero (one step in eight) — seeded from the
// configurations TestRunMatchesSingleCallsAndReference draws.
func FuzzSieveMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := referenceConfig(seed, rng)
		ops := make([]byte, 4*256)
		rng.Read(ops)
		f.Add(uint16(cfg.IMCTSize), uint8(cfg.T1), uint8(cfg.T2), uint8(cfg.Subwindows), ops)
	}
	f.Fuzz(func(t *testing.T, imct uint16, t1, t2, k uint8, ops []byte) {
		cfg := CConfig{
			IMCTSize:   1 + int(imct)%512,
			T1:         1 + int(t1)%laneCap,
			T2:         1 + int(t2)%16,
			Window:     8000,
			Subwindows: 1 + int(k)%maxSubwindows,
		}
		var steps []step
		for ; len(ops) >= 4; ops = ops[4:] {
			st := step{dt: int64(ops[0] % 64), deny: ops[3]>>5 == 0}
			switch {
			case ops[0] == 255:
				st.dt = 1<<40 + int64(ops[1])<<30
			case ops[0] >= 240:
				st.dt = int64(ops[0]-239) * 2000
			}
			for b := 1 + int(ops[2]%8); b > 0; b-- {
				st.keys = append(st.keys, block.Key(ops[1])+block.Key(b*int(ops[3]&63)))
			}
			steps = append(steps, st)
		}
		checkAgainstReference(t, cfg, steps)
	})
}

// TestStaleSubwindowDoesNotRewind: a timestamp one subwindow behind the
// newest — two callers that read the clock either side of a boundary and
// reached the sieve in the other order — counts in the newest subwindow.
// Rewinding made the next in-order miss zero the live subwindow, and made
// the sieve's full sweep run a second time for the same boundary.
func TestStaleSubwindowDoesNotRewind(t *testing.T) {
	w := oneSlot(4, 1)
	for i := 0; i < 5; i++ {
		w.bump(10)
	}
	w.bump(9)
	if got := w.bump(10); got != 7 {
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
