package sieve

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
)

func acc(t int64, n uint64, kind block.Kind) block.Access {
	return block.Access{Time: t, Key: block.MakeKey(0, 0, n), Kind: kind}
}

// admitOne offers p a run of one miss, a's block at a's time.
func admitOne(p Policy, a block.Access) bool {
	return len(p.AdmitRun(a.Time, a.Kind, []block.Key{a.Key}, nil)) == 1
}

func TestAODAndWMNA(t *testing.T) {
	if !admitOne(AOD{}, acc(0, 1, block.Read)) || !admitOne(AOD{}, acc(0, 1, block.Write)) {
		t.Error("AOD must always allocate")
	}
	if !admitOne(WMNA{}, acc(0, 1, block.Read)) {
		t.Error("WMNA must allocate on read miss")
	}
	if admitOne(WMNA{}, acc(0, 1, block.Write)) {
		t.Error("WMNA must not allocate on write miss")
	}
	if (AOD{}).Name() != "AOD" || (WMNA{}).Name() != "WMNA" {
		t.Error("names wrong")
	}
}

// TestAdmitRunAppendsIndexes pins AdmitRun's contract: each policy appends
// the indexes of the misses it admits, ascending, after what dst held, and
// C's run is one Begin and one Admit a miss.
func TestAdmitRunAppendsIndexes(t *testing.T) {
	misses := []block.Key{3, 9, 4}
	for _, c := range []struct {
		p    Policy
		kind block.Kind
		want []int
	}{
		{AOD{}, block.Write, []int{-1, 0, 1, 2}},
		{WMNA{}, block.Read, []int{-1, 0, 1, 2}},
		{WMNA{}, block.Write, []int{-1}},
		{NewRandC(0, 1), block.Read, []int{-1}},
		{NewRandC(1, 1), block.Write, []int{-1, 0, 1, 2}},
	} {
		if got := c.p.AdmitRun(0, c.kind, misses, []int{-1}); !slices.Equal(got, c.want) {
			t.Errorf("%s %v: AdmitRun = %v, want %v", c.p.Name(), c.kind, got, c.want)
		}
	}
	cfg := CConfig{IMCTSize: 8, T1: 2, T2: 2, Window: 4000, Subwindows: 4}
	s, _ := NewC(cfg)
	twin, _ := NewC(cfg)
	admitted := 0
	for i := range 40 {
		at := int64(i) * 300
		run, misses := twin.Begin(at), []block.Key{block.Key(i % 5), 7, block.Key(i%3 + 20)}
		var want []int
		for j, key := range misses {
			if run.Admit(key, false) {
				want = append(want, j)
			}
		}
		got := s.AdmitRun(at, block.Read, misses, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("run %d: AdmitRun = %v, Begin and Admit %v", i, got, want)
		}
		admitted += len(got)
	}
	if s.Stats() != twin.Stats() || admitted == 0 {
		t.Errorf("stats %+v, twin %+v, %d admitted", s.Stats(), twin.Stats(), admitted)
	}
}

func TestRandCRate(t *testing.T) {
	p := NewRandC(0.01, 7)
	n := 100000
	allocs := 0
	for i := 0; i < n; i++ {
		if admitOne(p, acc(int64(i), uint64(i), block.Read)) {
			allocs++
		}
	}
	got := float64(allocs) / float64(n)
	if math.Abs(got-0.01) > 0.003 {
		t.Errorf("allocation rate = %v, want ≈0.01", got)
	}
}

func TestCConfigValidate(t *testing.T) {
	good := DefaultCConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*CConfig){
		func(c *CConfig) { c.IMCTSize = 0 },
		func(c *CConfig) { c.T1 = 0 },
		func(c *CConfig) { c.T2 = 0 },
		func(c *CConfig) { c.T1 = laneCap + 1 },
		func(c *CConfig) { c.Subwindows = 0 },
		func(c *CConfig) { c.Subwindows = maxSubwindows + 1 },
		func(c *CConfig) { c.Window = 0 },
		func(c *CConfig) { c.Window, c.Subwindows = 3, 4 },
	}
	for i, mutate := range bads {
		c := DefaultCConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	if _, err := NewC(CConfig{}); err == nil {
		t.Error("NewC must validate")
	}
	if _, err := NewSingleTier(CConfig{}); err == nil {
		t.Error("NewSingleTier must validate")
	}
	c := DefaultCConfig()
	c.T1, c.T2 = laneCap, 1
	if _, err := NewC(c); err != nil {
		t.Errorf("T1 at the lane cap: %v", err)
	}
	if _, err := NewSingleTier(c); err == nil || !strings.Contains(err.Error(), "127") {
		t.Errorf("NewSingleTier with T1+T2 past the lane cap: %v, want an error naming 127", err)
	}
}

func TestWinCounterRotation(t *testing.T) {
	w := oneSlot(4, 1)
	// Three misses in window 0.
	w.bump(0)
	w.bump(0)
	if got := w.bump(0); got != 3 {
		t.Fatalf("total = %d, want 3", got)
	}
	// One miss per subsequent subwindow: total accumulates over the window.
	if got := w.bump(1); got != 4 {
		t.Fatalf("total = %d, want 4", got)
	}
	if got := w.bump(2); got != 5 {
		t.Fatalf("total = %d, want 5", got)
	}
	if got := w.bump(3); got != 6 {
		t.Fatalf("total = %d, want 6", got)
	}
	// Window 4 expires window 0's three misses.
	if got := w.bump(4); got != 4 {
		t.Fatalf("total = %d, want 4 after expiry", got)
	}
	// A long idle gap zeroes everything.
	if got := w.bump(100); got != 1 {
		t.Fatalf("total = %d, want 1 after gap", got)
	}
}

// sieveCFor returns a small-window sieve so tests can cross subwindows
// easily.
func sieveCFor(t *testing.T, imctSize int) *C {
	t.Helper()
	s, err := NewC(CConfig{IMCTSize: imctSize, T1: 9, T2: 4, Window: 8 * time.Hour, Subwindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSieveCAllocatesOnlyAfterThresholds(t *testing.T) {
	s := sieveCFor(t, 1<<16)
	// A block missing repeatedly must be allocated on miss T1+T2 = 13
	// (9 to pass the IMCT — assuming no aliasing at this table size —
	// then 4 precise misses; the promoting miss is counted in the MCT).
	allocAt := 0
	for i := 1; i <= 20; i++ {
		if s.ShouldAllocate(acc(int64(i)*1e9, 42, block.Read)) {
			allocAt = i
			break
		}
	}
	// Promotion happens on miss 9 (first MCT count), so T2=4 is reached on
	// miss 12.
	if allocAt != 12 {
		t.Errorf("allocated at miss %d, want 12", allocAt)
	}
	st := s.Stats()
	if st.Allocations != 1 || st.Promotions != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestSieveCShouldAllocateNPenalty pins the QoS hook semantics of Admit's
// deny: a denied miss counts like any other but never allocates, and
// nothing is forgotten while a block is denied, so it allocates on its first
// undenied miss at or past T2 — miss 12 here, as in
// TestSieveCAllocatesOnlyAfterThresholds, or the first after the streak.
func TestSieveCShouldAllocateNPenalty(t *testing.T) {
	for _, denied := range []int{0, 8, 11, 12, 40} {
		s := sieveCFor(t, 1<<16)
		allocAt := 0
		for i := 1; i <= 50 && allocAt == 0; i++ {
			if s.Begin(int64(i)*1e9).Admit(42, i <= denied) {
				allocAt = i
			}
		}
		if want := max(12, denied+1); allocAt != want {
			t.Errorf("%d misses denied: allocated at miss %d, want %d", denied, allocAt, want)
		}
		if st := s.Stats(); st.Misses != int64(allocAt) || st.Promotions != 1 || st.Allocations != 1 || st.MCTSize != 0 {
			t.Errorf("%d misses denied: stats %+v, want %d misses, one promotion and one allocation", denied, st, allocAt)
		}
	}
}

func TestSieveCLowReuseNeverAllocated(t *testing.T) {
	// A large-enough IMCT that aliasing is essentially absent for this
	// population: 500 blocks over 2^20 slots.
	s := sieveCFor(t, 1<<20)
	// Many distinct blocks, each missing at most 4 times: none should be
	// allocated (IMCT threshold never met without aliasing).
	for b := uint64(0); b < 500; b++ {
		for i := 0; i < 4; i++ {
			if s.ShouldAllocate(acc(int64(b*5+uint64(i))*1e6, b, block.Read)) {
				t.Fatalf("low-reuse block %d allocated", b)
			}
		}
	}
}

func TestSieveCWindowExpiry(t *testing.T) {
	s := sieveCFor(t, 1<<16)
	// 12 misses spread over 3 days (far apart): never allocates because the
	// window expires between them.
	day := int64(24 * time.Hour)
	n := 0
	for i := 0; i < 12; i++ {
		if s.ShouldAllocate(acc(int64(i)*day, 7, block.Read)) {
			n++
		}
	}
	if n != 0 {
		t.Errorf("allocated %d times across expired windows", n)
	}
}

func TestSieveCAliasingPromotesEarly(t *testing.T) {
	// With a one-line IMCT every page aliases onto one line, so the first
	// blocks of all pages share one counter: the T1 gate passes almost
	// immediately and only the precise MCT filters — the failure mode
	// motivating the two-tier design.
	s, err := NewC(CConfig{IMCTSize: 1, T1: 9, T2: 4, Window: 8 * time.Hour, Subwindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Nine misses from distinct pages' first blocks warm the shared slot.
	for p := uint64(100); p < 109; p++ {
		s.ShouldAllocate(acc(1e9, p*block.BlocksPerPage, block.Read))
	}
	// A fresh page's first block now needs only T2 misses.
	allocAt := 0
	for i := 1; i <= 10; i++ {
		if s.ShouldAllocate(acc(2e9+int64(i), 7*block.BlocksPerPage, block.Read)) {
			allocAt = i
			break
		}
	}
	if allocAt != 4 {
		t.Errorf("aliased block allocated at miss %d, want 4 (T2)", allocAt)
	}
}

func TestSieveCPruning(t *testing.T) {
	s := sieveCFor(t, 1)
	// Promote many blocks into the MCT (single slot → instant aliasing).
	for b := uint64(0); b < 100; b++ {
		for i := 0; i < 2; i++ {
			s.ShouldAllocate(acc(1e9, b, block.Read))
		}
	}
	if st := s.Stats(); st.MCTSize == 0 {
		t.Fatal("MCT should have entries")
	}
	// Jump far into the future: the sweep should drop everything stale.
	s.ShouldAllocate(acc(int64(48*time.Hour), 999999, block.Read))
	if st := s.Stats(); st.MCTSize > 1 {
		t.Errorf("MCT not pruned: %d entries", st.MCTSize)
	}
}

func TestSingleTierAllocatesAliased(t *testing.T) {
	st, err := NewSingleTier(CConfig{IMCTSize: 1, T1: 9, T2: 4, Window: 8 * time.Hour, Subwindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 13 misses from 13 *distinct* blocks, the first of 13 pages that
	// share the one IMCT line: the 13th gets allocated purely by
	// piggybacking — the pollution the MCT exists to stop.
	allocated := false
	for p := uint64(0); p < 13; p++ {
		allocated = admitOne(st, acc(1e9, p*block.BlocksPerPage, block.Read))
	}
	if !allocated {
		t.Error("single-tier sieve should admit aliased low-reuse block")
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2(0.35, 0.75, 0)
	if len(rows) != 3 {
		t.Fatal("want 3 rows")
	}
	aod, wmna, isa := rows[0], rows[1], rows[2]
	// Paper Table 2: AOD 73.75% SSD writes share → SSD ops 100%,
	// writes = 8.75% + 65%.
	if math.Abs(aod.SSDWrites-0.7375) > 1e-9 || math.Abs(aod.SSDOps-1.0) > 1e-9 {
		t.Errorf("AOD row = %+v", aod)
	}
	// WMNA: alloc-writes 48.75%, SSD writes 57.5% (=8.75%+48.75%).
	if math.Abs(wmna.AllocWrites-0.4875) > 1e-9 || math.Abs(wmna.SSDWrites-0.575) > 1e-9 {
		t.Errorf("WMNA row = %+v", wmna)
	}
	// ISA: ops 26.25% + 8.75% + ε = 35% + ε.
	if math.Abs(isa.SSDOps-0.35) > 1e-9 || isa.AllocWrites != 0 {
		t.Errorf("ISA row = %+v", isa)
	}
	// The paper's headline ratios: WMNA more than doubles SSD operations
	// (≈2.4×) versus hits-only, and multiplies allocation-writes ≈5.6×
	// over write hits.
	if r := wmna.SSDOps / isa.SSDOps; r < 2.3 || r > 2.5 {
		t.Errorf("WMNA ops blowup = %.2f, want ≈2.4×", r)
	}
	if r := wmna.AllocWrites / (0.35 * 0.25); r < 5.5 || r > 5.7 {
		t.Errorf("WMNA alloc-write blowup = %.2f, want ≈5.6×", r)
	}
}

func TestBeladyCounterexample(t *testing.T) {
	// Paper §3.1: on a,a,b,b,a,a,c,c,... with a 1-entry cache, Belady's
	// selective allocation converges to ~50% hits but allocates on ~50% of
	// accesses, while pinning `a` gets nearly the same hits with exactly
	// one allocation-write.
	stream := CounterexampleStream(50) // 200 accesses
	belady := BeladySelective(stream, 1)
	fixed := FixedAllocation(stream, []block.Key{block.MakeKey(0, 0, 0)})
	if belady.Hits <= 90 || belady.Hits >= 110 {
		t.Errorf("belady hits = %d, want ≈100 (50%%)", belady.Hits)
	}
	if fixed.Hits != 100 {
		t.Errorf("fixed hits = %d, want 100", fixed.Hits)
	}
	if fixed.AllocWrites != 1 {
		t.Errorf("fixed alloc-writes = %d, want 1", fixed.AllocWrites)
	}
	if belady.AllocWrites < 50 {
		t.Errorf("belady alloc-writes = %d, want ≈half the accesses", belady.AllocWrites)
	}
	if belady.AllocWrites <= fixed.AllocWrites*20 {
		t.Errorf("counterexample not demonstrated: %d vs %d", belady.AllocWrites, fixed.AllocWrites)
	}
}

func TestBeladySelectiveMaximizesHitsOnSmallCase(t *testing.T) {
	// Sanity: Belady-selective on a simple reuse stream caches the block.
	k := func(n uint64) block.Key { return block.MakeKey(0, 0, n) }
	stream := []block.Key{k(1), k(1), k(1), k(2), k(1)}
	res := BeladySelective(stream, 1)
	if res.Hits != 3 || res.AllocWrites != 1 {
		t.Errorf("got %+v", res)
	}
}

func TestMinCompulsoryAllocFraction(t *testing.T) {
	// Paper: 50% + 47%/4 = 61.75%.
	if got := MinCompulsoryAllocFraction(0.50, 0.97); math.Abs(got-0.6175) > 1e-9 {
		t.Errorf("got %v, want 0.6175", got)
	}
}

func TestBeladyAODMatchesNaiveOnSmallStreams(t *testing.T) {
	// Cross-check the heap implementation against the O(n·C) reference.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 200 + rng.Intn(200)
		capacity := 1 + rng.Intn(8)
		stream := make([]block.Key, n)
		for i := range stream {
			stream[i] = block.MakeKey(0, 0, uint64(rng.Intn(32)))
		}
		fast := BeladyAOD(stream, capacity)
		slow := beladyAODNaive(stream, capacity)
		if fast != slow {
			t.Fatalf("trial %d: heap %+v vs naive %+v", trial, fast, slow)
		}
	}
}

// beladyAODNaive is the quadratic reference for the cross-check.
func beladyAODNaive(stream []block.Key, capacity int) OracleResult {
	next := nextUses(stream)
	cached := map[block.Key]int{}
	var res OracleResult
	for i, key := range stream {
		if _, ok := cached[key]; ok {
			res.Hits++
			cached[key] = next[i]
			continue
		}
		res.AllocWrites++
		if len(cached) >= capacity {
			var victim block.Key
			far := -1
			for k, nu := range cached {
				if nu > far {
					far, victim = nu, k
				}
			}
			delete(cached, victim)
		}
		cached[key] = next[i]
	}
	return res
}

func TestBeladyAODEveryMissAllocates(t *testing.T) {
	// §3.1: oracle replacement with AOD still pays an allocation-write per
	// miss — hits + alloc-writes must equal the stream length.
	stream := CounterexampleStream(25)
	res := BeladyAOD(stream, 4)
	if res.Hits+res.AllocWrites != len(stream) {
		t.Errorf("hits %d + allocs %d != %d accesses", res.Hits, res.AllocWrites, len(stream))
	}
	// Each of the 25 pair-blocks plus `a` misses exactly once with AOD and
	// a capacity that holds them through their immediate reuse.
	if res.AllocWrites != 26 {
		t.Errorf("alloc-writes = %d, want 26 (one per distinct block)", res.AllocWrites)
	}
}

func TestBeladyAODOptimalOnKnownPattern(t *testing.T) {
	k := func(n uint64) block.Key { return block.MakeKey(0, 0, n) }
	// Classic: 1,2,3,4,1,2,5,1,2,3,4,5 with capacity 3 → MIN gets 5 hits...
	// compute: the canonical MIN fault count for this string is 7 faults.
	stream := []block.Key{k(1), k(2), k(3), k(4), k(1), k(2), k(5), k(1), k(2), k(3), k(4), k(5)}
	res := BeladyAOD(stream, 3)
	if res.AllocWrites != 7 || res.Hits != 5 {
		t.Errorf("MIN on canonical string: faults=%d hits=%d, want 7/5", res.AllocWrites, res.Hits)
	}
}
