package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/sieve"
	"repro/internal/store"
)

// Golden-trace regression suite: a fixed seeded Zipf workload driven
// through both variants at Shards=1 and Shards=8, with the end-of-run
// hit ratio, allocation-write count, and sieve-admission count pinned to
// golden values. The workload is single-threaded and the clock is
// injected (10 ms per op), so every run takes identical decisions —
// math/rand with a fixed seed is stable under the Go 1 compatibility
// promise, sieved.Select tie-breaks by key, and VariantD rotations run
// inline in the triggering op. Any drift here means the caching policy
// itself changed, which must be a deliberate, explained decision.
//
// Tolerance is ±1% relative: tight enough to catch policy regressions,
// loose enough to survive benign refactors of float accounting.

const (
	goldenSpan = 4096  // distinct blocks touched
	goldenOps  = 30000 // operations per run
	goldenSeed = 42
)

type goldenResult struct {
	HitRatio    float64
	AllocWrites int64
	Admissions  int64 // VariantC: sieve allocations; VariantD: epoch moves
	Epochs      int64
}

func runGoldenWorkload(t *testing.T, variant Variant, shards int) goldenResult {
	return runGoldenWorkloadPolicy(t, variant, shards, "")
}

func runGoldenWorkloadPolicy(t *testing.T, variant Variant, shards int, policy string) goldenResult {
	return runGoldenReads(t, variant, shards, policy, nil)
}

// runGoldenReads is the golden workload with onRead, when not nil, called
// before each read with the store, the read's first key and its length in
// blocks.
func runGoldenReads(t *testing.T, variant Variant, shards int, policy string, onRead func(*Store, block.Key, int)) goldenResult {
	t.Helper()
	be := store.NewMem()
	be.AddVolume(0, 0, (goldenSpan+4)*block.Size)

	now := time.Unix(1700000000, 0)
	opts := Options{
		CacheBytes: 512 * block.Size,
		Shards:     shards,
		Policy:     policy,
		Variant:    variant,
		Now:        func() time.Time { return now },
	}
	switch variant {
	case VariantC:
		// Smaller table and thresholds than the paper's 24-hour tuning so
		// a 30k-op run exercises promotion, admission, and pruning.
		opts.SieveC = sieve.CConfig{
			IMCTSize: 1 << 12, T1: 3, T2: 2,
			Window: 2 * time.Minute, Subwindows: 4,
		}
	case VariantD:
		// 10 ms per op and 1-minute epochs: a rotation every 6000 ops,
		// five across the run, all triggered inline by the op path.
		opts.Epoch = time.Minute
		opts.DThreshold = 4
		opts.SpillDir = t.TempDir()
	}
	st, err := Open(be, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	r := rand.New(rand.NewSource(goldenSeed))
	zipf := rand.NewZipf(r, 1.2, 1, goldenSpan-1)
	wbuf := bytes.Repeat([]byte{0xC3}, 4*block.Size)
	rbuf := make([]byte, 4*block.Size)
	for i := 0; i < goldenOps; i++ {
		now = now.Add(10 * time.Millisecond)
		blk := zipf.Uint64()
		nblk := 1 + r.Intn(4)
		off := blk * block.Size
		if r.Intn(10) < 7 {
			if onRead != nil {
				onRead(st, block.MakeKey(0, 0, blk), nblk)
			}
			if err := st.ReadAt(0, 0, rbuf[:nblk*block.Size], off); err != nil {
				t.Fatalf("op %d: read: %v", i, err)
			}
		} else {
			if err := st.WriteAt(0, 0, wbuf[:nblk*block.Size], off); err != nil {
				t.Fatalf("op %d: write: %v", i, err)
			}
		}
	}

	s := st.Stats()
	res := goldenResult{
		HitRatio:    s.HitRatio(),
		AllocWrites: s.AllocWrites,
		Epochs:      s.Epochs,
	}
	if variant == VariantD {
		res.Admissions = s.EpochMoves
	} else {
		res.Admissions = st.SieveStats().Allocations
	}
	return res
}

// withinGolden checks got against want with ±1% relative tolerance.
func withinGolden(got, want float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want) <= 0.01*math.Abs(want)
}

func TestGoldenTrace(t *testing.T) {
	cases := []struct {
		name    string
		variant Variant
		shards  int
		policy  string
		want    goldenResult
	}{
		// Golden values recorded from the run that introduced this suite.
		// VariantC's admissions shift slightly with sharding (per-shard
		// IMCTs alias differently and eviction is shard-local); VariantD
		// admits only at epoch boundaries from a global log, so its
		// numbers are shard-count-invariant. SieveStoreC/SIEVE/Shards8 was
		// re-recorded when placement moved from the block to the 4 KiB page
		// (its AllocWrites left ±1 %; SieveStoreC/Shards8 stayed inside and
		// keeps its row). When the IMCT went page-major, a page's eight
		// blocks sharing one line, the rows whose AllocWrites left ±1 % were
		// re-recorded (SieveStoreC/Shards1 2095 → 2026, Shards8 2123 → 2178,
		// SIEVE/Shards1 1873 → 1826; SIEVE/Shards8 moved 1940 → 1942 and
		// keeps its row). Each row with Shards > 1 follows its variant's
		// Shards1 row and must stay within 0.01 of that row's hit ratio.
		//
		// The LRU rows predate the Policy seam and stayed bit-identical
		// through it; the SIEVE rows were recorded when the seam landed.
		// TestGoldenPolicyParity separately pins SIEVE's hit ratio to
		// within one point of LRU's.
		{"SieveStoreC/Shards1", VariantC, 1, "",
			goldenResult{HitRatio: 0.857627, AllocWrites: 2026, Admissions: 2026, Epochs: 0}},
		{"SieveStoreC/Shards8", VariantC, 8, "",
			goldenResult{HitRatio: 0.858281, AllocWrites: 2178, Admissions: 2178, Epochs: 0}},
		{"SieveStoreD/Shards1", VariantD, 1, "",
			goldenResult{HitRatio: 0.685907, AllocWrites: 0, Admissions: 660, Epochs: 5}},
		{"SieveStoreD/Shards8", VariantD, 8, "",
			goldenResult{HitRatio: 0.685907, AllocWrites: 0, Admissions: 660, Epochs: 5}},
		// SIEVE edges out LRU on this workload (0.8667 vs 0.8576 at one
		// shard): fewer admissions stick because unvisited one-hit blocks
		// are swept quickly, so the survivors are hotter. VariantD's
		// numbers are policy-invariant — the epoch swap installs the same
		// selected set regardless of the in-epoch replacement engine.
		{"SieveStoreC/SIEVE/Shards1", VariantC, 1, "sieve",
			goldenResult{HitRatio: 0.866689, AllocWrites: 1826, Admissions: 1826, Epochs: 0}},
		{"SieveStoreC/SIEVE/Shards8", VariantC, 8, "sieve",
			goldenResult{HitRatio: 0.865568, AllocWrites: 1940, Admissions: 1940, Epochs: 0}},
		{"SieveStoreD/SIEVE/Shards1", VariantD, 1, "sieve",
			goldenResult{HitRatio: 0.685907, AllocWrites: 0, Admissions: 660, Epochs: 5}},
		{"SieveStoreD/SIEVE/Shards8", VariantD, 8, "sieve",
			goldenResult{HitRatio: 0.685907, AllocWrites: 0, Admissions: 660, Epochs: 5}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runGoldenWorkloadPolicy(t, tc.variant, tc.shards, tc.policy)
			t.Logf("golden %s: %s", tc.name, formatGolden(got))
			if tc.shards > 1 {
				if base := cases[i-1].want.HitRatio; math.Abs(got.HitRatio-base) > 0.01 {
					t.Errorf("hit ratio = %.6f, more than 0.01 from %s's %.6f", got.HitRatio, cases[i-1].name, base)
				}
			}
			if !withinGolden(got.HitRatio, tc.want.HitRatio) {
				t.Errorf("hit ratio = %.6f, want %.6f ±1%%", got.HitRatio, tc.want.HitRatio)
			}
			if !withinGolden(float64(got.AllocWrites), float64(tc.want.AllocWrites)) {
				t.Errorf("alloc writes = %d, want %d ±1%%", got.AllocWrites, tc.want.AllocWrites)
			}
			if !withinGolden(float64(got.Admissions), float64(tc.want.Admissions)) {
				t.Errorf("admissions = %d, want %d ±1%%", got.Admissions, tc.want.Admissions)
			}
			if got.Epochs != tc.want.Epochs {
				t.Errorf("epochs = %d, want exactly %d", got.Epochs, tc.want.Epochs)
			}
		})
	}
}

// TestGoldenPolicyParity pins the headline claim for the Policy seam:
// SIEVE must match LRU's hit ratio within one point (absolute) on the
// golden Zipf workload, at one shard and at eight. SIEVE's hit path is
// the cheap one (a visited bit instead of list surgery under the shard
// lock), so parity here means the cheaper engine gives up nothing the
// paper's configuration cares about.
func TestGoldenPolicyParity(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("Shards%d", shards), func(t *testing.T) {
			lru := runGoldenWorkloadPolicy(t, VariantC, shards, "lru")
			sv := runGoldenWorkloadPolicy(t, VariantC, shards, "sieve")
			t.Logf("lru=%s sieve=%s", formatGolden(lru), formatGolden(sv))
			if diff := math.Abs(sv.HitRatio - lru.HitRatio); diff > 0.01 {
				t.Errorf("SIEVE hit ratio %.6f vs LRU %.6f: |Δ| = %.4f > 0.01",
					sv.HitRatio, lru.HitRatio, diff)
			}
		})
	}
}

// TestGoldenDeterminism double-runs one configuration and requires exact
// equality — if this fails, the workload itself is nondeterministic and
// the golden values above are meaningless.
func TestGoldenDeterminism(t *testing.T) {
	a := runGoldenWorkload(t, VariantD, 8)
	b := runGoldenWorkload(t, VariantD, 8)
	if a != b {
		t.Fatalf("two identical runs diverged:\n  %+v\n  %+v", a, b)
	}
}

// runShares tallies how the blocks of reads that hit are served: in page
// runs whose blocks are all resident (the one-HitRun path), and of those in
// runs whose slots follow one another within one slab (one copy).
type runShares struct{ hits, resident, oneCopy int64 }

// count classifies the read of n blocks from key0 as the store will serve
// it, before it is issued; the caller issues reads one at a time.
func (r *runShares) count(s *Store, key0 block.Key, n int) {
	for _, w := range s.pageRuns(nil, key0, n) {
		i, end, pk, b := runPage(key0, w)
		sh := s.shards[w>>runShardShift]
		sh.mu.Lock()
		pg, mask := sh.tab.Page(pk), uint32(1)<<sh.slabShift-1
		sh.mu.Unlock()
		run := pg[b : b+end-i]
		copies := 1
		for j, e := range run {
			if e != 0 {
				r.hits++
			}
			if j > 0 && (e != run[j-1]+1 || (e-1)&mask == 0) {
				copies++
			}
		}
		if !slices.Contains(run, 0) {
			r.resident += int64(len(run))
			if copies == 1 {
				r.oneCopy += int64(len(run))
			}
		}
	}
}

// TestGoldenRunShares counts, on the golden workload, the share of read
// hits served as fully-resident page runs and, of those, the share in one
// copy. Its own hit count must match the store's.
func TestGoldenRunShares(t *testing.T) {
	for _, shards := range []int{1, 8} {
		var r runShares
		var s *Store
		runGoldenReads(t, VariantC, shards, "", func(st *Store, key0 block.Key, n int) {
			s = st
			r.count(st, key0, n)
		})
		if hits := s.Stats().ReadHits; r.hits != hits {
			t.Errorf("Shards%d: counted %d read hits, the store %d", shards, r.hits, hits)
		}
		t.Logf("Shards%d: %d read hits, %.3f in fully-resident runs, %.3f of those in one copy",
			shards, r.hits, float64(r.resident)/float64(r.hits), float64(r.oneCopy)/float64(r.resident))
	}
}

func formatGolden(g goldenResult) string {
	return fmt.Sprintf("{HitRatio: %.6f, AllocWrites: %d, Admissions: %d, Epochs: %d}",
		g.HitRatio, g.AllocWrites, g.Admissions, g.Epochs)
}
