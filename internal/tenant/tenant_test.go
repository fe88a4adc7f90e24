package tenant

import (
	"math"
	"testing"
	"time"

	"repro/internal/block"
)

// Unit suite for the Accountant: ID packing, config validation, quota
// assignment and repartitioning math, the repartition timer, quota
// admission, selection clipping, and the snapshot/totals surface. The adversarial end-to-end scenarios live in
// internal/core/tenant_test.go; this file pins the package's own
// arithmetic with a hand-computable configuration.

func TestIDPacking(t *testing.T) {
	for _, tc := range []struct{ server, volume int }{
		{0, 0}, {0, 63}, {63, 0}, {63, 63}, {2, 3}, {17, 40},
	} {
		id := MakeID(tc.server, tc.volume)
		if id.Server() != tc.server || id.Volume() != tc.volume {
			t.Errorf("MakeID(%d,%d) round-trips to (%d,%d)",
				tc.server, tc.volume, id.Server(), id.Volume())
		}
		// The packing must agree with block.Key's field layout for every
		// block number, including the extremes.
		for _, n := range []uint64{0, 1, block.MaxBlockNumber} {
			if got := IDOf(block.MakeKey(tc.server, tc.volume, n)); got != id {
				t.Errorf("IDOf(MakeKey(%d,%d,%d)) = %v, want %v",
					tc.server, tc.volume, n, got, id)
			}
		}
	}
	if s := MakeID(5, 7).String(); s != "5/7" {
		t.Errorf("String() = %q, want 5/7", s)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero capacity", Config{}},
		{"negative capacity", Config{CapacityBlocks: -1}},
	} {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.cfg)
		}
	}
	a, err := New(Config{CapacityBlocks: 64})
	if err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
	if a.cfg.Quotas {
		t.Error("minimal config should have quotas off")
	}
}

func TestNilAccountantIsDisabled(t *testing.T) {
	var a *Accountant
	id := MakeID(1, 2)
	// Every method must be a safe no-op on nil.
	a.OnAccess(id, 4, false)
	a.OnHits(id, 2)
	a.OnInstall(id)
	a.OnEvict(id)
	a.OnAllocWrite(id, 1)
	a.MaybeRepartition(time.Unix(0, 0))
	a.Repartition()
	if a.DenyAdmission(id) {
		t.Error("nil DenyAdmission denied")
	}
	keys := []block.Key{block.MakeKey(1, 2, 3)}
	if out, clipped := a.ClipSelection(keys); clipped != 0 || len(out) != 1 {
		t.Errorf("nil ClipSelection clipped %d of %d", clipped, len(out))
	}
	if s := a.Snapshot(); s != nil {
		t.Errorf("nil Snapshot = %v, want nil", s)
	}
	if tot := a.Totals(); tot != (Totals{}) {
		t.Errorf("nil Totals = %+v, want zero", tot)
	}
}

// TestInitialQuotas: a tenant's first quota is an equal share of
// capacity at the moment it appears; earlier tenants keep theirs until
// the next repartition.
func TestInitialQuotas(t *testing.T) {
	a, err := New(Config{CapacityBlocks: 64, Quotas: true})
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := MakeID(0, 0), MakeID(0, 1)
	a.OnAccess(t1, 1, false)
	a.OnAccess(t2, 1, false)
	snap := a.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("got %d tenants, want 2", len(snap))
	}
	if snap[0].QuotaBlocks != 64 || snap[1].QuotaBlocks != 32 {
		t.Errorf("initial quotas = %d, %d; want 64, 32",
			snap[0].QuotaBlocks, snap[1].QuotaBlocks)
	}
	if got := a.Totals().Tenants; got != 2 {
		t.Errorf("Totals().Tenants = %d, want 2", got)
	}
}

// TestRepartition pins the quota formula: floor = capacity/(floorDiv×N)
// plus the remainder split proportionally to interval hits, idle tenants
// donating down to the floor; an interval with no hits anywhere keeps
// the current split.
func TestRepartition(t *testing.T) {
	a, err := New(Config{CapacityBlocks: 64, Quotas: true})
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := MakeID(0, 0), MakeID(0, 1)
	a.OnHits(t1, 30)
	a.OnHits(t2, 10)
	a.Repartition()
	// floor = 64/(8×2) = 4 each; avail = 64−8 = 56 split 30:10.
	snap := a.Snapshot()
	if snap[0].QuotaBlocks != 4+56*30/40 || snap[1].QuotaBlocks != 4+56*10/40 {
		t.Errorf("quotas after 30:10 = %d, %d; want 46, 18",
			snap[0].QuotaBlocks, snap[1].QuotaBlocks)
	}
	if got := a.Totals().Repartitions; got != 1 {
		t.Errorf("repartitions = %d, want 1", got)
	}

	// The interval counters were consumed: a hitless interval keeps the
	// split and does not count as a repartition.
	a.Repartition()
	if got := a.Totals().Repartitions; got != 1 {
		t.Errorf("hitless repartition counted: %d", got)
	}
	snap = a.Snapshot()
	if snap[0].QuotaBlocks != 46 || snap[1].QuotaBlocks != 18 {
		t.Errorf("hitless interval moved quotas to %d, %d", snap[0].QuotaBlocks, snap[1].QuotaBlocks)
	}

	// A fully idle tenant donates down to the floor.
	a.OnHits(t1, 100)
	a.Repartition()
	snap = a.Snapshot()
	if snap[0].QuotaBlocks != 60 || snap[1].QuotaBlocks != 4 {
		t.Errorf("idle-donation quotas = %d, %d; want 60, 4",
			snap[0].QuotaBlocks, snap[1].QuotaBlocks)
	}

	// Lifetime hits survive the interval resets.
	if snap[0].Hits != 130 || snap[1].Hits != 10 {
		t.Errorf("lifetime hits = %d, %d; want 130, 10", snap[0].Hits, snap[1].Hits)
	}
}

// TestRepartitionTinyCapacity: when the capacity cannot fund one-block
// floors the split falls back to equal shares.
func TestRepartitionTinyCapacity(t *testing.T) {
	a, err := New(Config{CapacityBlocks: 3, Quotas: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		a.OnHits(MakeID(0, v), int64(v+1))
	}
	a.Repartition()
	for _, s := range a.Snapshot() {
		if s.QuotaBlocks != 0 { // 3/4 == 0: equal-split fallback
			t.Errorf("tenant %d/%d quota = %d, want 0", s.Server, s.Volume, s.QuotaBlocks)
		}
	}
}

func TestMaybeRepartitionInterval(t *testing.T) {
	a, err := New(Config{CapacityBlocks: 64, Quotas: true, RepartitionEvery: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_000_000, 0)
	id := MakeID(0, 0)
	a.OnHits(id, 5)
	a.MaybeRepartition(base) // first call: deadline unset, fires
	if got := a.Totals().Repartitions; got != 1 {
		t.Fatalf("first MaybeRepartition: %d repartitions, want 1", got)
	}
	a.OnHits(id, 5)
	a.MaybeRepartition(base.Add(30 * time.Second))
	if got := a.Totals().Repartitions; got != 1 {
		t.Errorf("mid-interval MaybeRepartition fired: %d", got)
	}
	a.MaybeRepartition(base.Add(61 * time.Second))
	if got := a.Totals().Repartitions; got != 2 {
		t.Errorf("post-interval MaybeRepartition: %d repartitions, want 2", got)
	}

	// A disabled timer never fires.
	off, err := New(Config{CapacityBlocks: 64, Quotas: true, RepartitionEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	off.OnHits(id, 5)
	off.MaybeRepartition(base.Add(time.Hour))
	if got := off.Totals().Repartitions; got != 0 {
		t.Errorf("disabled timer fired: %d", got)
	}

	// Tracking only: there is no quota to move, so neither entry point
	// repartitions, however much demand there is.
	track, err := New(Config{CapacityBlocks: 64, RepartitionEvery: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	track.OnHits(id, 5)
	track.MaybeRepartition(base)
	track.Repartition()
	if got := track.Totals().Repartitions; got != 0 {
		t.Errorf("tracking-only accountant repartitioned %d times", got)
	}
}

// TestQuotaAdmission: at/over quota the admission is denied; dropping
// below quota (eviction) lifts the denial immediately. A lone tenant's first quota is the whole capacity, 4
// blocks; the floor only enters at a repartition.
func TestQuotaAdmission(t *testing.T) {
	a, err := New(Config{CapacityBlocks: 4, Quotas: true})
	if err != nil {
		t.Fatal(err)
	}
	id := MakeID(0, 0)
	for i := 0; i < 4; i++ {
		if a.DenyAdmission(id) {
			t.Fatalf("admission %d under quota denied", i)
		}
		a.OnInstall(id)
	}
	if !a.DenyAdmission(id) {
		t.Fatal("admission at quota not denied")
	}
	snap := a.Snapshot()
	if snap[0].QuotaDenials != 1 || a.Totals().QuotaDenials != 1 {
		t.Errorf("quota denial counters = %d / %d, want 1 / 1",
			snap[0].QuotaDenials, a.Totals().QuotaDenials)
	}
	a.OnEvict(id)
	if a.DenyAdmission(id) {
		t.Error("admission still denied after eviction freed a block")
	}

	// Quotas off: never denied, however full.
	off, _ := New(Config{CapacityBlocks: 4})
	for i := 0; i < 8; i++ {
		off.OnInstall(id)
	}
	if off.DenyAdmission(id) || off.Totals().QuotaDenials != 0 {
		t.Error("quotas-off accountant denied an admission")
	}
}

func TestClipSelection(t *testing.T) {
	a, err := New(Config{CapacityBlocks: 8, Quotas: true})
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := MakeID(0, 0), MakeID(0, 1)
	a.OnAccess(ta, 1, false) // quota 8 (first tenant)
	a.OnAccess(tb, 1, false) // quota 4 (second)

	var keys []block.Key
	for i := uint64(0); i < 10; i++ { // interleaved hottest-first
		keys = append(keys, block.MakeKey(0, 0, i), block.MakeKey(0, 1, i))
	}
	out, clipped := a.ClipSelection(keys)
	if clipped != 2+6 {
		t.Errorf("clipped = %d, want 8 (2 over A's 8, 6 over B's 4)", clipped)
	}
	// Exact expected survivors: B clipped after 4, A after 8, original
	// interleaved order preserved.
	var want []block.Key
	for i := uint64(0); i < 8; i++ {
		want = append(want, block.MakeKey(0, 0, i))
		if i < 4 {
			want = append(want, block.MakeKey(0, 1, i))
		}
	}
	if len(out) != len(want) {
		t.Fatalf("kept %d keys, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("clip output[%d] = %v, want %v (order not preserved?)", i, out[i], want[i])
		}
	}
	if got := a.Totals().SelectionClips; got != 8 {
		t.Errorf("Totals().SelectionClips = %d, want 8", got)
	}
	snap := a.Snapshot()
	if snap[0].SelectionClips != 2 || snap[1].SelectionClips != 6 {
		t.Errorf("per-tenant clips = %d, %d; want 2, 6",
			snap[0].SelectionClips, snap[1].SelectionClips)
	}

	// Quotas off: pass-through, no clips.
	na8, _ := New(Config{CapacityBlocks: 8})
	out, clipped = na8.ClipSelection(keys)
	if clipped != 0 || len(out) != len(keys) {
		t.Errorf("quotas-off clip = %d of %d", clipped, len(out))
	}
}

func TestSnapshotSortedAndCounters(t *testing.T) {
	a, err := New(Config{CapacityBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Arrive out of order; Snapshot must sort by (server, volume).
	for _, id := range []ID{MakeID(3, 1), MakeID(0, 2), MakeID(1, 0)} {
		a.OnAccess(id, 2, false)
		a.OnAccess(id, 1, true)
		a.OnHits(id, 1)
		a.OnInstall(id)
	}
	snap := a.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d tenants, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].ID >= snap[i].ID {
			t.Errorf("snapshot not sorted: %v before %v", snap[i-1].ID, snap[i].ID)
		}
	}
	for _, s := range snap {
		if s.Reads != 2 || s.Writes != 1 || s.Hits != 1 || s.OccupancyBlocks != 1 {
			t.Errorf("tenant %d/%d counters = %+v", s.Server, s.Volume, s)
		}
		if got, want := s.HitRatio(), 1.0/3; math.Abs(got-want) > 1e-12 {
			t.Errorf("hit ratio = %v, want %v", got, want)
		}
	}
	if (Snapshot{}).HitRatio() != 0 {
		t.Error("empty snapshot hit ratio should be 0")
	}
}
