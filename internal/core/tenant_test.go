package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/sieve"
	"repro/internal/store"
	"repro/internal/tenant"
)

// Multi-tenant QoS suite: per-tenant quotas, quota-aware sieving and
// the repartition cadence. The adversarial scenarios reuse the
// golden-trace harness discipline: injected clock, seeded generators,
// single-threaded drive — so every run takes identical decisions and
// the assertions pin behavior, not luck.

const (
	tnStableSeed = 42 // the golden seed: the stable tenant IS the golden workload
	tnBurst      = 4  // noisy tenant: accesses per block — admits, then never returns
)

// runTenantWorkload drives the stable tenant (server 0, volume 0: the
// golden Zipf mix) for goldenOps operations, optionally interleaved
// 1:1 with a noisy neighbor (server 1, volume 0). The noisy tenant is a
// burst-churner: it reads each block a fixed number of times in a row
// and never again, tuned per variant for maximum damage with zero
// earned reuse. Against VariantC, four accesses: the sieve (T1=3 then
// T2=2) admits on the fourth miss, so the block is installed and
// abandoned in the same breath. Against VariantD, twelve: admission
// happens only at the epoch boundary, so every burst access is a miss
// regardless of length; twelve makes the per-epoch churn footprint
// (6000/12 = 500 blocks) just about fill the 512-block cache while the
// per-block count still outranks the stable tenant's mid-tier blocks in
// the hottest-first epoch selection — the displacement maximum.
// The clock steps so the stable tenant sees the same per-epoch access
// density solo and joint (10 ms per stable op either way). Quotas
// repartition every 30 s under VariantC (the sieve's 2 min / 4
// subwindow) and at each one-minute epoch under VariantD.
func runTenantWorkload(t *testing.T, variant Variant, shards int, quotas, noisy bool) ([]tenant.Snapshot, Stats) {
	t.Helper()
	burst := tnBurst
	if variant == VariantD {
		burst = 3 * tnBurst
	}
	be := store.NewMem()
	be.AddVolume(0, 0, (goldenSpan+4)*block.Size)
	be.AddVolume(1, 0, (goldenOps/tnBurst+8)*block.Size)

	now := time.Unix(1700000000, 0)
	opts := Options{
		CacheBytes:     512 * block.Size,
		Shards:         shards,
		Variant:        variant,
		TenantTracking: true,
		TenantQuotas:   quotas,
		Now:            func() time.Time { return now },
	}
	switch variant {
	case VariantC:
		opts.SieveC = sieve.CConfig{
			IMCTSize: 1 << 12, T1: 3, T2: 2,
			Window: 2 * time.Minute, Subwindows: 4,
		}
	case VariantD:
		opts.Epoch = time.Minute
		opts.DThreshold = 4
		opts.SpillDir = t.TempDir()
	}
	st, err := Open(be, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	srand := rand.New(rand.NewSource(tnStableSeed))
	zipf := rand.NewZipf(srand, 1.2, 1, goldenSpan-1)
	wbuf := bytes.Repeat([]byte{0xC3}, 4*block.Size)
	rbuf := make([]byte, 4*block.Size)

	nops := goldenOps
	step := 10 * time.Millisecond
	if noisy {
		nops *= 2
		step = 5 * time.Millisecond
	}
	noisyOp := 0
	for i := 0; i < nops; i++ {
		now = now.Add(step)
		if noisy && i%2 == 1 {
			blk := uint64(noisyOp / burst)
			noisyOp++
			if err := st.ReadAt(1, 0, rbuf[:block.Size], blk*block.Size); err != nil {
				t.Fatalf("noisy op %d: %v", i, err)
			}
			continue
		}
		blk := zipf.Uint64()
		nblk := 1 + srand.Intn(4)
		off := blk * block.Size
		if srand.Intn(10) < 7 {
			if err := st.ReadAt(0, 0, rbuf[:nblk*block.Size], off); err != nil {
				t.Fatalf("op %d: read: %v", i, err)
			}
		} else {
			if err := st.WriteAt(0, 0, wbuf[:nblk*block.Size], off); err != nil {
				t.Fatalf("op %d: write: %v", i, err)
			}
		}
	}
	snaps, ok := st.TenantStats()
	if !ok {
		t.Fatal("TenantStats: tracking not enabled")
	}
	return snaps, st.Stats()
}

// tenantSnap picks one tenant out of a TenantStats slice.
func tenantSnap(t *testing.T, snaps []tenant.Snapshot, server, volume int) tenant.Snapshot {
	t.Helper()
	for _, s := range snaps {
		if s.Server == server && s.Volume == volume {
			return s
		}
	}
	t.Fatalf("tenant %d/%d not in %v", server, volume, snaps)
	return tenant.Snapshot{}
}

// TestTenantNoisyNeighbor is the headline adversarial scenario, run for
// both variants at one and eight shards:
//
//   - with quotas, the stable tenant's hit ratio stays within 2 points
//     of its solo run — the churner is fenced to the quota floor;
//   - without quotas, the same churner costs the stable tenant at least
//     5 points — the regression the quota machinery exists to prevent.
func TestTenantNoisyNeighbor(t *testing.T) {
	for _, tc := range []struct {
		name    string
		variant Variant
	}{
		{"C", VariantC},
		{"D", VariantD},
	} {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("SieveStore%s/Shards%d", tc.name, shards), func(t *testing.T) {
				soloSnaps, _ := runTenantWorkload(t, tc.variant, shards, true, false)
				solo := tenantSnap(t, soloSnaps, 0, 0).HitRatio()

				guardSnaps, guardStats := runTenantWorkload(t, tc.variant, shards, true, true)
				guarded := tenantSnap(t, guardSnaps, 0, 0).HitRatio()

				openSnaps, _ := runTenantWorkload(t, tc.variant, shards, false, true)
				open := tenantSnap(t, openSnaps, 0, 0).HitRatio()

				t.Logf("stable hit ratio: solo %.4f, with quotas %.4f, without %.4f",
					solo, guarded, open)
				if d := math.Abs(guarded - solo); d > 0.02 {
					t.Errorf("with quotas: stable hit ratio %.4f vs solo %.4f (|Δ| = %.4f > 0.02)",
						guarded, solo, d)
				}
				if d := solo - open; d < 0.05 {
					t.Errorf("without quotas: stable hit ratio %.4f vs solo %.4f (degraded only %.4f < 0.05)",
						open, solo, d)
				}

				// The protection must come from the mechanism, not luck: the
				// churner was denied or clipped, repartitions ran, and its
				// quota was squeezed toward the floor (512/(8×2) = 32; IMCT
				// aliasing can gift the churner a few accidental hits under
				// VariantC, so "near", not "at") while the stable tenant
				// held the bulk of the cache.
				if guardStats.QuotaDenials+guardStats.TenantClips == 0 {
					t.Error("with quotas: no quota denials or selection clips recorded")
				}
				if guardStats.TenantRepartitions == 0 {
					t.Error("with quotas: no repartitions ran")
				}
				churn := tenantSnap(t, guardSnaps, 1, 0)
				if churn.QuotaBlocks > 128 {
					t.Errorf("churner quota = %d, want ≤ 128 (near the 32 floor)", churn.QuotaBlocks)
				}
				if stable := tenantSnap(t, guardSnaps, 0, 0); stable.QuotaBlocks < 350 {
					t.Errorf("stable quota = %d, want ≥ 350", stable.QuotaBlocks)
				}
			})
		}
	}
}

// TestTenantTrackingOnlyNoRepartitions: with quotas off there is no quota
// to move, so a tracking-only store driven across ten sieve subwindows
// (VariantC) or five epochs (VariantD), with a noisy neighbour, counts no
// repartition, denial or clip.
func TestTenantTrackingOnlyNoRepartitions(t *testing.T) {
	for _, variant := range []Variant{VariantC, VariantD} {
		_, stats := runTenantWorkload(t, variant, 8, false, true)
		if stats.TenantRepartitions != 0 || stats.QuotaDenials != 0 || stats.TenantClips != 0 {
			t.Errorf("%v tracking only: %d repartitions, %d denials, %d clips; want none",
				variant, stats.TenantRepartitions, stats.QuotaDenials, stats.TenantClips)
		}
	}
}

// TestTenantAccountingFence is the no-double-count fence: after a
// deterministic two-tenant run, per-tenant counters summed across
// tenants must equal the store's own striped-merged Stats exactly —
// reads, writes, hits, residency, and allocation writes (continuous
// admissions plus epoch batch moves). Run for both variants at eight
// shards (the striped-merge case). A second TenantStats call must return
// identical values (snapshots don't consume or double-fold anything).
func TestTenantAccountingFence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		variant Variant
	}{
		{"C/Shards8", VariantC},
		{"D/Shards8", VariantD},
	} {
		t.Run(tc.name, func(t *testing.T) {
			be := store.NewMem()
			be.AddVolume(0, 0, 1028*block.Size)
			be.AddVolume(0, 1, 1028*block.Size)
			now := time.Unix(1700000000, 0)
			opts := Options{
				CacheBytes:     256 * block.Size,
				Shards:         8,
				Variant:        tc.variant,
				TenantTracking: true,
				TenantQuotas:   true,
				Now:            func() time.Time { return now },
			}
			switch tc.variant {
			case VariantC:
				opts.SieveC = sieve.CConfig{
					IMCTSize: 1 << 12, T1: 3, T2: 2,
					Window: 2 * time.Minute, Subwindows: 4,
				}
			case VariantD:
				opts.Epoch = time.Minute
				opts.DThreshold = 4
				opts.SpillDir = t.TempDir()
			}
			st, err := Open(be, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()

			r := rand.New(rand.NewSource(7))
			zipf := rand.NewZipf(r, 1.2, 1, 1023)
			wbuf := bytes.Repeat([]byte{0x5A}, 4*block.Size)
			rbuf := make([]byte, 4*block.Size)
			for i := 0; i < 20000; i++ {
				now = now.Add(10 * time.Millisecond)
				vol := i % 2
				off := zipf.Uint64() * block.Size
				nblk := 1 + r.Intn(4)
				if r.Intn(10) < 7 {
					if err := st.ReadAt(0, vol, rbuf[:nblk*block.Size], off); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := st.WriteAt(0, vol, wbuf[:nblk*block.Size], off); err != nil {
						t.Fatal(err)
					}
				}
			}

			snaps, ok := st.TenantStats()
			if !ok {
				t.Fatal("tenant tracking off")
			}
			if len(snaps) != 2 {
				t.Fatalf("got %d tenants, want 2", len(snaps))
			}
			var reads, writes, hits, occ, allocs int64
			for _, s := range snaps {
				reads += s.Reads
				writes += s.Writes
				hits += s.Hits
				occ += s.OccupancyBlocks
				allocs += s.AllocWrites
			}
			stats := st.Stats()
			if reads != stats.Reads {
				t.Errorf("Σ tenant reads = %d, store %d", reads, stats.Reads)
			}
			if writes != stats.Writes {
				t.Errorf("Σ tenant writes = %d, store %d", writes, stats.Writes)
			}
			if hits != stats.Hits() {
				t.Errorf("Σ tenant hits = %d, store %d", hits, stats.Hits())
			}
			if occ != stats.CachedBlocks {
				t.Errorf("Σ tenant occupancy = %d, store CachedBlocks %d", occ, stats.CachedBlocks)
			}
			if allocs != stats.AllocWrites+stats.EpochMoves {
				t.Errorf("Σ tenant alloc writes = %d, store %d+%d",
					allocs, stats.AllocWrites, stats.EpochMoves)
			}

			// Reading the stats must not perturb them.
			again, _ := st.TenantStats()
			for i := range snaps {
				if snaps[i] != again[i] {
					t.Errorf("second TenantStats changed tenant %d/%d: %+v vs %+v",
						snaps[i].Server, snaps[i].Volume, snaps[i], again[i])
				}
			}
		})
	}
}

// TestTenantRepartitionStress hammers the quota machinery from every
// direction at once — four tenants of concurrent I/O, forced epoch
// rotations, flushes, and snapshot save/load cycles — under the race
// detector, for both repartition cadences: VariantC's, once a sieve
// subwindow, here 1 ms of real time so repartitions race everything else,
// and VariantD's, at each forced epoch boundary. It checks the occupancy
// invariant: per-tenant occupancy never goes negative while running, and
// once quiesced the occupancies sum exactly to the store's residency.
func TestTenantRepartitionStress(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"C", Options{Variant: VariantC, SieveC: sieve.CConfig{
			IMCTSize: 1 << 12, T1: 3, T2: 2,
			Window: 4 * time.Millisecond, Subwindows: 4,
		}}},
		// Real-time epochs never fire here: rotations are forced below.
		{"D", Options{Variant: VariantD, Epoch: time.Minute, DThreshold: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) { tenantStress(t, tc.opts) })
	}
}

// tenantStress is one arm of TestTenantRepartitionStress over opts.
func tenantStress(t *testing.T, opts Options) {
	be := store.NewMem()
	for v := 0; v < 5; v++ {
		be.AddVolume(0, v, 2048*block.Size)
	}
	opts.CacheBytes = 128 * block.Size
	opts.Shards = 8
	opts.SpillDir = t.TempDir()
	opts.WriteBack = true
	opts.TenantTracking = true
	opts.TenantQuotas = true
	st, err := Open(be, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for v := 0; v < 4; v++ {
		wg.Add(1)
		go func(vol int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + vol)))
			buf := make([]byte, 2*block.Size)
			for i := 0; i < 1500; i++ {
				// Mostly a 32-block hot set (re-read counts admit it at the
				// forced rotations and earn repartition demand), with a
				// uniform churn tail.
				blk := r.Intn(32)
				if r.Intn(4) == 0 {
					blk = r.Intn(2040)
				}
				off := uint64(blk) * block.Size
				n := (1 + r.Intn(2)) * block.Size
				if r.Intn(3) == 0 {
					if err := st.WriteAt(0, vol, buf[:n], off); err != nil {
						t.Errorf("vol %d write: %v", vol, err)
						return
					}
				} else if err := st.ReadAt(0, vol, buf[:n], off); err != nil {
					t.Errorf("vol %d read: %v", vol, err)
					return
				}
			}
		}(v)
	}
	wg.Add(3)
	go func() { // forced rotations on top of the epoch schedule (no-ops under VariantC)
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := st.RotateEpoch(); err != nil {
				t.Errorf("rotate: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() { // flushes drain write-back dirt concurrently
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if err := st.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() { // snapshot save/load cycles replace shards wholesale
		defer wg.Done()
		for i := 0; i < 8; i++ {
			var buf bytes.Buffer
			if err := st.SaveSnapshot(&buf); err != nil {
				t.Errorf("save: %v", err)
				return
			}
			if err := st.LoadSnapshot(&buf); err != nil {
				t.Errorf("load: %v", err)
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
	}()
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() { // watcher: occupancy must never be observed negative
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if snaps, ok := st.TenantStats(); ok {
				for _, s := range snaps {
					if s.OccupancyBlocks < 0 {
						t.Errorf("tenant %d/%d occupancy negative: %d",
							s.Server, s.Volume, s.OccupancyBlocks)
						return
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)
	watcher.Wait()

	// Deterministic coda: the concurrent phase may have raced past every
	// repartition before anything was resident (no hits → none counted).
	// Re-reading a hot set across forced rotations (VariantD), and
	// re-reading one block of a fresh tenant, under its quota, until the
	// sieve admits it and it hits (VariantC), guarantees the next boundary
	// — a rotation, or the first op past a 1 ms subwindow — observes demand.
	coda := make([]byte, block.Size)
	read := func(vol int, b uint64) {
		if err := st.ReadAt(0, vol, coda, b*block.Size); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 3; pass++ {
		for b := uint64(0); b < 32; b++ {
			read(0, b) // count ≥ DThreshold within the epoch
			read(0, b)
		}
		for rep := 0; rep < 8; rep++ {
			read(4, 0)
		}
		if err := st.RotateEpoch(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	snaps, ok := st.TenantStats()
	if !ok {
		t.Fatal("tenant tracking off")
	}
	var occ int64
	for _, s := range snaps {
		if s.OccupancyBlocks < 0 {
			t.Errorf("tenant %d/%d occupancy negative at quiesce: %d",
				s.Server, s.Volume, s.OccupancyBlocks)
		}
		occ += s.OccupancyBlocks
	}
	if stats := st.Stats(); occ != stats.CachedBlocks {
		t.Errorf("Σ tenant occupancy = %d, store CachedBlocks = %d", occ, stats.CachedBlocks)
	}
	if stats := st.Stats(); stats.TenantRepartitions == 0 {
		t.Error("no repartitions ran under stress")
	}
}

// TestTenantGoldenUnchanged guards the default path: with tenant
// tracking off (the default), the golden workload's rows must stay
// bit-identical to TestGoldenTrace — the QoS hooks are nil-guarded
// no-ops, not behavior changes. (runGoldenWorkload never sets the
// tenant options, so this re-run plus the unchanged golden values in
// TestGoldenTrace is the actual guarantee; here we additionally pin
// that tracking-only mode — no quotas — also leaves the
// policy untouched, since pure accounting must not steer admission.)
func TestTenantGoldenUnchanged(t *testing.T) {
	base := runGoldenWorkload(t, VariantC, 8)

	be := store.NewMem()
	be.AddVolume(0, 0, (goldenSpan+4)*block.Size)
	now := time.Unix(1700000000, 0)
	st, err := Open(be, Options{
		CacheBytes:     512 * block.Size,
		Shards:         8,
		Variant:        VariantC,
		TenantTracking: true, // observe-only: no quotas
		SieveC: sieve.CConfig{
			IMCTSize: 1 << 12, T1: 3, T2: 2,
			Window: 2 * time.Minute, Subwindows: 4,
		},
		Now: func() time.Time { return now },
	})
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
			if err := st.ReadAt(0, 0, rbuf[:nblk*block.Size], off); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := st.WriteAt(0, 0, wbuf[:nblk*block.Size], off); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := st.Stats()
	got := goldenResult{
		HitRatio:    s.HitRatio(),
		AllocWrites: s.AllocWrites,
		Admissions:  st.SieveStats().Allocations,
		Epochs:      s.Epochs,
	}
	if got != base {
		t.Errorf("observe-only tenant tracking changed the golden row:\n  got  %+v\n  want %+v", got, base)
	}
}
