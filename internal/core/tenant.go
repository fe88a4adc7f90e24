package core

import (
	"repro/internal/block"
	"repro/internal/tenant"
)

// Multi-tenant QoS integration (internal/tenant). The Accountant is a
// leaf under the shard locks: occupancy moves with every slot-table
// insert/remove (install, epoch swap, invalidation, snapshot
// replacement), per-op access/hit counts are charged once per
// ReadAt/WriteAt to the single (server, volume) tenant the op names,
// and admission consults the tenant's quota before the sieve. All
// helpers are nil-safe no-ops when tenant tracking is off, keeping the
// default path byte-identical.

// TenantStats returns every tenant's accounting, sorted by (server,
// volume); ok is false when tenant tracking is disabled.
func (s *Store) TenantStats() ([]tenant.Snapshot, bool) {
	if s.acct == nil {
		return nil, false
	}
	return s.acct.Snapshot(), true
}

// tenantAccess charges one op's block accesses to its tenant.
func (s *Store) tenantAccess(server, volume int, blocks int64, write bool) {
	if s.acct != nil {
		s.acct.OnAccess(tenant.MakeID(server, volume), blocks, write)
	}
}

// tenantHits charges one op's realized hits to its tenant — the demand
// signal quota repartitioning divides capacity by.
func (s *Store) tenantHits(server, volume int, hits int64) {
	if s.acct != nil && hits > 0 {
		s.acct.OnHits(tenant.MakeID(server, volume), hits)
	}
}

// tenantTick runs VariantC's once-a-subwindow quota repartition when due
// (one atomic load when it is not). Called from the op path next to
// maybeRotate.
func (s *Store) tenantTick() {
	if s.acct != nil {
		s.acct.MaybeRepartition(s.now())
	}
}

// tenantInstall records key becoming resident. Call under the owning
// shard's lock, exactly once per slot-table insertion.
func (sh *shard) tenantInstall(key block.Key) {
	if a := sh.store.acct; a != nil {
		a.OnInstall(tenant.IDOf(key))
	}
}

// tenantEvict records key leaving the cache. Call under the owning
// shard's lock, exactly once per slot-table removal.
func (sh *shard) tenantEvict(key block.Key) {
	if a := sh.store.acct; a != nil {
		a.OnEvict(tenant.IDOf(key))
	}
}

// tenantAllocWrite counts blocks of SSD allocation-writes to key's tenant.
func (sh *shard) tenantAllocWrite(key block.Key, blocks int64) {
	if a := sh.store.acct; a != nil {
		a.OnAllocWrite(tenant.IDOf(key), blocks)
	}
}
