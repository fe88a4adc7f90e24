// Package tenant implements multi-tenant QoS accounting for the
// SieveStore cache: per-tenant capacity quotas with demand-driven
// repartitioning.
//
// A tenant is the (server, volume) pair every wire request already
// carries — the natural isolation unit of the ensemble (ECI-Cache's
// per-VM partitions, one level down). The Accountant tracks, per
// tenant: block accesses and realized hits, cache occupancy, and
// allocation-writes. With quotas on it also enforces soft capacity
// quotas: each tenant holds a quota in blocks, and admission is denied
// while the tenant is at or over it (its resident set can only be
// displaced by global eviction pressure, never grown). Quotas
// repartition by realized reuse — each tenant's share of the interval's
// hits earns it the matching share of capacity above a small guaranteed
// floor. Hits, not raw accesses, are the demand signal on purpose: a
// scanning or churning tenant generates plenty of accesses but almost
// no reuse of its resident set, so it donates capacity to tenants whose
// blocks actually get re-read.
//
// There is no per-tenant write budget: the sieve is what bounds
// allocation-writes (§3.1), and a denied tenant's misses keep counting
// in it, so admission resumes the moment the tenant is back under quota.
//
// Concurrency: the Accountant is a leaf in the store's lock order. All
// counters are atomics; the tenant map is guarded by an RWMutex,
// write-locked only on first sight of a tenant and during
// repartitioning. No
// Accountant method calls back into the store, so it is safe to call
// under a shard lock.
package tenant

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

// ID identifies a tenant: the wire protocol's (server, volume) pair
// packed as server<<6 | volume — exactly bits 52..63 of a block.Key.
type ID uint16

// MakeID packs a (server, volume) pair. Callers are expected to pass
// values already validated by block.MakeKey's range checks.
func MakeID(server, volume int) ID {
	return ID(server)<<6 | ID(volume)&63
}

// IDOf extracts the owning tenant of a block key.
func IDOf(key block.Key) ID { return ID(uint64(key) >> 52) }

// Server returns the tenant's server index.
func (id ID) Server() int { return int(id >> 6) }

// Volume returns the tenant's volume index.
func (id ID) Volume() int { return int(id & 63) }

// String renders "server/volume".
func (id ID) String() string { return fmt.Sprintf("%d/%d", id.Server(), id.Volume()) }

// floorDiv sets the guaranteed per-tenant quota floor to
// CapacityBlocks/(floorDiv×tenants): idle tenants keep that much, and hot
// tenants claim the rest.
const floorDiv = 8

// Config parameterizes an Accountant. Blocks are block.Size bytes.
type Config struct {
	// CapacityBlocks is the cache capacity being partitioned (required).
	CapacityBlocks int64
	// Quotas enables per-tenant soft capacity quotas and their
	// repartitioning. Off, the Accountant only tracks.
	Quotas bool
	// RepartitionEvery is the time-driven repartition interval: the
	// store passes its sieve subwindow under VariantC. <= 0 disables the
	// timer, leaving the repartitions the caller forces (VariantD's epoch
	// boundaries).
	RepartitionEvery time.Duration
}

// state is one tenant's accounting, all atomics (bumped under shard
// locks or none at all).
type state struct {
	id ID

	reads, writes atomic.Int64 // lifetime block accesses
	hits          atomic.Int64 // lifetime block hits
	epochHits     atomic.Int64 // hits since the last repartition — the demand signal (quotas only)
	occupancy     atomic.Int64 // resident cache blocks
	quota         atomic.Int64 // current soft quota (blocks)
	allocWrites   atomic.Int64 // lifetime allocation-writes (blocks)
	quotaDenials  atomic.Int64 // admissions denied at/over quota
	clips         atomic.Int64 // epoch-selection blocks clipped by quota
}

// Accountant tracks and enforces per-tenant QoS. The zero value is not
// usable; construct with New. A nil *Accountant is a valid "disabled"
// instance for the exported read-only methods.
type Accountant struct {
	cfg Config

	mu      sync.RWMutex
	tenants map[ID]*state
	count   atomic.Int64 // len(tenants), readable without mu

	repartitions   atomic.Int64
	deadline       atomic.Int64 // next time-driven repartition (UnixNanos)
	quotaDenials   atomic.Int64
	selectionClips atomic.Int64
}

// New validates cfg and returns a ready Accountant.
func New(cfg Config) (*Accountant, error) {
	if cfg.CapacityBlocks < 1 {
		return nil, fmt.Errorf("tenant: CapacityBlocks must be ≥1, got %d", cfg.CapacityBlocks)
	}
	return &Accountant{cfg: cfg, tenants: make(map[ID]*state)}, nil
}

// get returns (creating on first sight) the tenant's state. A new
// tenant starts with an equal capacity share as its quota — existing
// tenants keep theirs until the next repartition, so the sum may
// transiently exceed capacity; quotas are soft.
func (a *Accountant) get(id ID) *state {
	a.mu.RLock()
	st := a.tenants[id]
	a.mu.RUnlock()
	if st != nil {
		return st
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if st = a.tenants[id]; st != nil {
		return st
	}
	st = &state{id: id}
	a.tenants[id] = st
	n := int64(len(a.tenants))
	a.count.Store(n)
	st.quota.Store(a.cfg.CapacityBlocks / n)
	return st
}

// OnAccess records blocks accessed by the tenant (one call per I/O).
func (a *Accountant) OnAccess(id ID, blocks int64, write bool) {
	if a == nil {
		return
	}
	st := a.get(id)
	if write {
		st.writes.Add(blocks)
	} else {
		st.reads.Add(blocks)
	}
}

// OnHits records blocks the tenant's accesses found cached. Hits feed
// the lifetime hit ratio and, with quotas on, accumulate the interval
// demand signal the next repartition divides capacity by.
func (a *Accountant) OnHits(id ID, hits int64) {
	if a == nil || hits <= 0 {
		return
	}
	st := a.get(id)
	st.hits.Add(hits)
	if a.cfg.Quotas {
		st.epochHits.Add(hits)
	}
}

// DenyAdmission reports whether one block admission for the tenant is
// denied: quotas are on and the tenant is at or over its quota. A
// denial is counted.
func (a *Accountant) DenyAdmission(id ID) bool {
	if a == nil || !a.cfg.Quotas {
		return false
	}
	st := a.get(id)
	if st.occupancy.Load() < st.quota.Load() {
		return false
	}
	st.quotaDenials.Add(1)
	a.quotaDenials.Add(1)
	return true
}

// OnAllocWrite counts blocks written into the cache on the tenant's
// behalf (sieve admissions, epoch batch installs).
func (a *Accountant) OnAllocWrite(id ID, blocks int64) {
	if a == nil || blocks <= 0 {
		return
	}
	a.get(id).allocWrites.Add(blocks)
}

// OnInstall records one block becoming resident for the tenant.
func (a *Accountant) OnInstall(id ID) {
	if a == nil {
		return
	}
	a.get(id).occupancy.Add(1)
}

// OnEvict records one of the tenant's resident blocks leaving the cache
// (eviction, invalidation, epoch swap, snapshot replacement).
func (a *Accountant) OnEvict(id ID) {
	if a == nil {
		return
	}
	a.get(id).occupancy.Add(-1)
}

// ClipSelection enforces quotas on an epoch's hottest-first selection:
// each tenant keeps its first quota blocks (quota read at its first
// key), order preserved, and the rest count as clips. The input slice
// is filtered in place. No-op (zero clips) with quotas off.
func (a *Accountant) ClipSelection(keys []block.Key) ([]block.Key, int64) {
	if a == nil || !a.cfg.Quotas {
		return keys, 0
	}
	left := make(map[ID]int64)
	out := keys[:0]
	var clipped int64
	for _, k := range keys {
		id := IDOf(k)
		n, seen := left[id]
		if !seen {
			n = a.get(id).quota.Load()
		}
		left[id] = n - 1
		if n > 0 {
			out = append(out, k)
			continue
		}
		a.get(id).clips.Add(1)
		clipped++
	}
	a.selectionClips.Add(clipped)
	return out, clipped
}

// MaybeRepartition runs a repartition if the time-driven interval has
// elapsed. One atomic load on the fast path; safe to call per-op. With
// quotas off it returns at once.
func (a *Accountant) MaybeRepartition(now time.Time) {
	if a == nil || !a.cfg.Quotas || a.cfg.RepartitionEvery <= 0 {
		return
	}
	n := now.UnixNano()
	d := a.deadline.Load()
	if n < d {
		return
	}
	if !a.deadline.CompareAndSwap(d, n+int64(a.cfg.RepartitionEvery)) {
		return // another caller claimed this boundary
	}
	a.Repartition()
}

// Repartition reassigns quotas by demand: each tenant gets the floor
// (CapacityBlocks/(floorDiv×N)) plus its share of the remaining
// capacity proportional to its interval hits, and the interval counters
// reset. An interval with no hits anywhere keeps the current split
// (there is no demand signal to act on — and resetting to an equal
// split would thrash quotas on idle systems). With quotas off it
// returns at once. Safe to call concurrently with accounting;
// assignment per tenant is independent, so map iteration order does
// not matter.
func (a *Accountant) Repartition() {
	if a == nil || !a.cfg.Quotas {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := int64(len(a.tenants))
	if n == 0 {
		return
	}
	var sum int64
	for _, st := range a.tenants {
		sum += st.epochHits.Load()
	}
	if sum <= 0 {
		return
	}
	floor := a.cfg.CapacityBlocks / (floorDiv * n)
	if floor < 1 {
		floor = 1
	}
	avail := a.cfg.CapacityBlocks - floor*n
	if avail < 0 {
		// Capacity too small for even one-block floors: fall back to an
		// equal split.
		floor = a.cfg.CapacityBlocks / n
		avail = 0
	}
	for _, st := range a.tenants {
		h := st.epochHits.Swap(0)
		st.quota.Store(floor + avail*h/sum)
	}
	a.repartitions.Add(1)
}

// Snapshot is one tenant's externally visible accounting.
type Snapshot struct {
	ID              ID    `json:"-"`
	Server          int   `json:"server"`
	Volume          int   `json:"volume"`
	QuotaBlocks     int64 `json:"quota_blocks"`
	OccupancyBlocks int64 `json:"occupancy_blocks"`
	Reads           int64 `json:"reads"`
	Writes          int64 `json:"writes"`
	Hits            int64 `json:"hits"`
	AllocWrites     int64 `json:"alloc_writes"`
	QuotaDenials    int64 `json:"quota_denials"`
	SelectionClips  int64 `json:"selection_clips"`
}

// HitRatio returns the tenant's lifetime hit fraction.
func (s Snapshot) HitRatio() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Snapshot returns every tenant's accounting, sorted by ID.
func (a *Accountant) Snapshot() []Snapshot {
	if a == nil {
		return nil
	}
	a.mu.RLock()
	states := make([]*state, 0, len(a.tenants))
	for _, st := range a.tenants {
		states = append(states, st)
	}
	a.mu.RUnlock()
	sort.Slice(states, func(i, j int) bool { return states[i].id < states[j].id })
	out := make([]Snapshot, len(states))
	for i, st := range states {
		out[i] = Snapshot{
			ID:              st.id,
			Server:          st.id.Server(),
			Volume:          st.id.Volume(),
			QuotaBlocks:     st.quota.Load(),
			OccupancyBlocks: st.occupancy.Load(),
			Reads:           st.reads.Load(),
			Writes:          st.writes.Load(),
			Hits:            st.hits.Load(),
			AllocWrites:     st.allocWrites.Load(),
			QuotaDenials:    st.quotaDenials.Load(),
			SelectionClips:  st.clips.Load(),
		}
	}
	return out
}

// Totals aggregates the store-level QoS counters.
type Totals struct {
	Tenants        int64
	QuotaDenials   int64
	SelectionClips int64
	Repartitions   int64
}

// Totals returns the aggregated counters.
func (a *Accountant) Totals() Totals {
	if a == nil {
		return Totals{}
	}
	return Totals{
		Tenants:        a.count.Load(),
		QuotaDenials:   a.quotaDenials.Load(),
		SelectionClips: a.selectionClips.Load(),
		Repartitions:   a.repartitions.Load(),
	}
}
