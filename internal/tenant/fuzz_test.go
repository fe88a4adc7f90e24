package tenant

import "testing"

// FuzzTenantAccounting drives a byte-decoded op sequence through an
// Accountant and a trivially-correct model (plain maps, no atomics), then checks that the Accountant's snapshot matches the
// model and that the package invariants hold:
//
//   - per-tenant occupancy, reads, writes, hits, and alloc-writes match
//     the model exactly, and occupancy is never negative;
//   - after any counted repartition, every quota is at least the floor
//     and the quotas sum to at most the capacity;
//   - with quotas off nothing is denied and no repartition counts;
//   - the snapshot is sorted by tenant ID with no duplicates.
//
// The op stream mirrors the store's call discipline (OnEvict only fires
// for a resident block), which the core layer guarantees by charging
// occupancy moves at the tags-mutation sites.
func FuzzTenantAccounting(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x12, 0x23, 0x34, 0x45, 0x56, 0x67})
	f.Add([]byte{0xFF, 0x03, 0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x06, 0x17})
	f.Add([]byte{0x55, 0x02, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
		0x50, 0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57})

	f.Fuzz(func(t *testing.T, data []byte) {
		const capacity = 64
		// The first byte's low bit turns quotas on.
		var quotas bool
		if len(data) > 0 {
			quotas = data[0]&1 != 0
			data = data[1:]
		}
		a, err := New(Config{CapacityBlocks: capacity, Quotas: quotas})
		if err != nil {
			t.Fatal(err)
		}

		type mstate struct {
			occ, reads, writes, hits, allocs int64
		}
		model := make(map[ID]*mstate)
		mget := func(id ID) *mstate {
			st := model[id]
			if st == nil {
				st = &mstate{}
				model[id] = st
			}
			return st
		}

		repartitioned := false
		nAtRepart := 0
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]>>4, int64(data[i]&0xF)+1
			// Eight tenants: two servers × four volumes. The model entry is
			// created only for ops that actually reach the Accountant, so
			// the tenant sets stay in lockstep.
			id := MakeID(int(data[i+1]&1), int(data[i+1]>>1&3))
			switch op % 8 {
			case 0: // read access
				a.OnAccess(id, arg, false)
				mget(id).reads += arg
			case 1: // write access
				a.OnAccess(id, arg, true)
				mget(id).writes += arg
			case 2: // hits
				a.OnHits(id, arg)
				mget(id).hits += arg
			case 3: // install
				a.OnInstall(id)
				mget(id).occ++
			case 4: // evict — only ever called for a resident block,
				// mirroring the store's call discipline
				if st := model[id]; st != nil && st.occ > 0 {
					a.OnEvict(id)
					st.occ--
				}
			case 5: // allocation write
				a.OnAllocWrite(id, arg)
				mget(id).allocs += arg
			case 6: // admission probe (may deny; counters only), which
				// reaches the tenant's state only with quotas on
				if a.DenyAdmission(id) && !quotas {
					t.Fatalf("tenant %v denied with quotas off", id)
				}
				if quotas {
					mget(id)
				}
			case 7: // a forced repartition
				before := a.Totals().Repartitions
				a.Repartition()
				if a.Totals().Repartitions > before {
					repartitioned = true
					nAtRepart = len(model)
				}
			}
		}

		snap := a.Snapshot()
		seen := make(map[ID]bool)
		var quotaSum int64
		for i, s := range snap {
			if i > 0 && snap[i-1].ID >= s.ID {
				t.Fatalf("snapshot unsorted at %d: %v then %v", i, snap[i-1].ID, s.ID)
			}
			if seen[s.ID] {
				t.Fatalf("duplicate tenant %v in snapshot", s.ID)
			}
			seen[s.ID] = true
			m := model[s.ID]
			if m == nil {
				t.Fatalf("tenant %v in snapshot but not in model", s.ID)
			}
			if s.OccupancyBlocks < 0 {
				t.Fatalf("tenant %v occupancy negative: %d", s.ID, s.OccupancyBlocks)
			}
			if s.OccupancyBlocks != m.occ || s.Reads != m.reads || s.Writes != m.writes ||
				s.Hits != m.hits || s.AllocWrites != m.allocs {
				t.Fatalf("tenant %v: snapshot {occ %d r %d w %d h %d aw %d} != model %+v",
					s.ID, s.OccupancyBlocks, s.Reads, s.Writes, s.Hits, s.AllocWrites, *m)
			}
			quotaSum += s.QuotaBlocks
		}
		if len(snap) != len(model) {
			t.Fatalf("snapshot has %d tenants, model %d", len(snap), len(model))
		}
		if !quotas && repartitioned {
			t.Fatal("a repartition counted with quotas off")
		}
		if quotas && repartitioned && len(model) == nAtRepart {
			// After a counted repartition with no tenants arriving since,
			// the split is exact: floors are honored and the sum fits in
			// capacity. (A tenant arriving later starts at an equal share,
			// which may transiently push the sum over — quotas are soft.)
			n := int64(len(snap))
			floor := int64(capacity) / (8 * n)
			if floor < 1 {
				floor = 1
			}
			if int64(capacity)-floor*n < 0 {
				floor = int64(capacity) / n
			}
			for _, s := range snap {
				if s.QuotaBlocks < floor {
					t.Fatalf("tenant %v quota %d below floor %d", s.ID, s.QuotaBlocks, floor)
				}
			}
			if quotaSum > capacity {
				t.Fatalf("quotas sum to %d > capacity %d after repartition", quotaSum, capacity)
			}
		}
	})
}
