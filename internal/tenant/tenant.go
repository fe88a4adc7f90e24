// Package tenant implements multi-tenant QoS accounting for the
// SieveStore cache: per-tenant capacity quotas with demand-driven
// repartitioning, admission sieve-threshold penalties, and an SSD
// write-endurance budget.
//
// A tenant is the (server, volume) pair every wire request already
// carries — the natural isolation unit of the ensemble (ECI-Cache's
// per-VM partitions, one level down). The Accountant tracks, per
// tenant: block accesses and realized hits, cache occupancy, and
// allocation-writes (the SSD wear the sieve's admissions cause). On
// top of the accounting sit two QoS mechanisms:
//
//   - Soft capacity quotas. Each tenant holds a quota in blocks;
//     admission is denied while the tenant is at or over it (its
//     resident set can only be displaced by global eviction pressure,
//     never grown). Quotas repartition periodically — and, under
//     SieveStore-D, at every epoch boundary — by realized reuse: each
//     tenant's share of the interval's hits earns it the matching share
//     of capacity above a small guaranteed floor. Hits, not raw
//     accesses, are the demand signal on purpose: a scanning or
//     churning tenant generates plenty of accesses but almost no reuse
//     of its resident set, so it donates capacity to tenants whose
//     blocks actually get re-read.
//
//   - An endurance budget. Allocation-writes drain a per-tenant token
//     bucket whose refill rate is the tenant's share of the configured
//     drive-endurance envelope (bytes/day). A tenant running low is
//     soft-throttled first (its sieve threshold is raised by two, so
//     only hotter blocks admit); an empty bucket
//     hard-denies admission until the envelope refills. Either way the
//     sieve keeps counting the tenant's misses, so admission resumes
//     instantly once the budget allows.
//
// Concurrency: the Accountant is a leaf in the store's lock order. All
// hot counters are atomics; the tenant map is guarded by an RWMutex
// taken only on first sight of a tenant and during repartitioning; each
// tenant's token bucket has its own small mutex. No Accountant method
// calls back into the store, so it is safe to call under a shard lock.
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

// Throttle levels of the endurance budget.
const (
	// ThrottleNone: the tenant is within its endurance envelope.
	ThrottleNone = 0
	// ThrottleSoft: the bucket is running low; admission continues with
	// the sieve threshold raised by throttlePenalty.
	ThrottleSoft = 1
	// ThrottleHard: the bucket is empty; admission is denied until the
	// envelope refills.
	ThrottleHard = 2
)

// DenyPenalty is the sieve-threshold delta that encodes "denied": above
// the 8·65535 a sieve's precise window total saturates at (sieve's
// TestDenyPenaltyOutlastsSaturation), so the sieve keeps counting the
// tenant's misses without ever admitting. Core uses it for quota and
// hard-endurance denials.
const DenyPenalty = 1 << 20

// Soft-throttle and quota-floor constants.
const (
	// throttlePenalty is added to a soft-throttled tenant's sieve
	// threshold.
	throttlePenalty = 2
	// floorDiv sets the guaranteed per-tenant quota floor to
	// CapacityBlocks/(floorDiv×tenants): idle tenants keep that much, and
	// hot tenants claim the rest.
	floorDiv = 8
)

// Config parameterizes an Accountant. Blocks are block.Size bytes.
type Config struct {
	// CapacityBlocks is the cache capacity being partitioned (required).
	CapacityBlocks int64
	// Quotas enables per-tenant soft capacity quotas and their
	// repartitioning. Off, the Accountant only tracks.
	Quotas bool
	// EnduranceBytesPerDay is the SSD endurance envelope shared by all
	// tenants (each tenant's bucket refills at its capacity share of this
	// rate). 0 disables the endurance budget.
	EnduranceBytesPerDay int64
	// RepartitionEvery is the time-driven repartition interval. <= 0
	// disables the timer (epoch-boundary repartitions still run when the
	// caller forces them).
	RepartitionEvery time.Duration
}

func (c *Config) validate() error {
	if c.CapacityBlocks < 1 {
		return fmt.Errorf("tenant: CapacityBlocks must be ≥1, got %d", c.CapacityBlocks)
	}
	if c.EnduranceBytesPerDay < 0 {
		return fmt.Errorf("tenant: EnduranceBytesPerDay must be ≥0, got %d", c.EnduranceBytesPerDay)
	}
	return nil
}

// state is one tenant's accounting. Counters are atomics (bumped under
// shard locks or none at all); the endurance bucket has its own mutex.
type state struct {
	id ID

	reads, writes atomic.Int64 // lifetime block accesses
	hits          atomic.Int64 // lifetime block hits
	epochHits     atomic.Int64 // hits since the last repartition — the demand signal
	occupancy     atomic.Int64 // resident cache blocks
	quota         atomic.Int64 // current soft quota (blocks)
	allocWrites   atomic.Int64 // lifetime allocation-writes (blocks)

	quotaDenials    atomic.Int64 // admissions denied at/over quota
	throttleDenials atomic.Int64 // admissions denied by an empty endurance bucket
	clips           atomic.Int64 // epoch-selection blocks clipped (quota or endurance)
	throttles       atomic.Int64 // transitions from ThrottleNone into a throttled level
	throttled       atomic.Int32 // current throttle level

	// Endurance token bucket, guarded by emu. tokens is bytes; a zero
	// lastRefill marks a bucket that has never seen a clock yet.
	emu        sync.Mutex
	tokens     float64
	lastRefill int64
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
	throttleDenial atomic.Int64
	selectionClips atomic.Int64
}

// New validates cfg and returns a ready Accountant.
func New(cfg Config) (*Accountant, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Accountant{cfg: cfg, tenants: make(map[ID]*state)}, nil
}

// EnduranceEnabled reports whether the endurance budget is active.
func (a *Accountant) EnduranceEnabled() bool { return a != nil && a.cfg.EnduranceBytesPerDay > 0 }

// get returns (creating on first sight) the tenant's state. A new
// tenant starts with an equal capacity share as its quota — existing
// tenants keep theirs until the next repartition, so the sum may
// transiently exceed capacity; quotas are soft — and a full endurance
// bucket.
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
	st.tokens = a.burstBytes() // unpublished: no emu needed
	return st
}

// burstBytes is the bucket depth: one hour's worth of the whole
// envelope (bounded below so tiny envelopes still admit a few blocks).
func (a *Accountant) burstBytes() float64 {
	b := float64(a.cfg.EnduranceBytesPerDay) / 24
	if min := float64(8 * block.Size); b < min {
		b = min
	}
	return b
}

// refillLocked advances the bucket to now. Caller holds st.emu. The
// refill rate is the tenant's capacity share of the daily envelope:
// its quota fraction when quotas are on, an equal 1/N split otherwise.
func (a *Accountant) refillLocked(st *state, now time.Time) {
	n := now.UnixNano()
	if st.lastRefill == 0 {
		st.lastRefill = n
		return
	}
	dt := n - st.lastRefill
	if dt <= 0 {
		return
	}
	st.lastRefill = n
	share := 1.0
	if a.cfg.Quotas && a.cfg.CapacityBlocks > 0 {
		share = float64(st.quota.Load()) / float64(a.cfg.CapacityBlocks)
	} else if c := a.count.Load(); c > 0 {
		share = 1 / float64(c)
	}
	st.tokens += float64(a.cfg.EnduranceBytesPerDay) * share / float64(24*time.Hour) * float64(dt)
	if b := a.burstBytes(); st.tokens > b {
		st.tokens = b
	}
}

// levelLocked recomputes the throttle level from the bucket. Caller
// holds st.emu. Entering a throttled level from ThrottleNone counts one
// throttle event.
func (a *Accountant) levelLocked(st *state) int32 {
	var lvl int32
	switch {
	case st.tokens < float64(block.Size):
		lvl = ThrottleHard
	case st.tokens < a.burstBytes()/4:
		lvl = ThrottleSoft
	default:
		lvl = ThrottleNone
	}
	if prev := st.throttled.Swap(lvl); prev == ThrottleNone && lvl != ThrottleNone {
		st.throttles.Add(1)
	}
	return lvl
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

// OnHits records blocks the tenant's accesses found cached. Hits both
// feed the lifetime hit ratio and accumulate the interval demand signal
// the next repartition divides capacity by.
func (a *Accountant) OnHits(id ID, hits int64) {
	if a == nil || hits <= 0 {
		return
	}
	st := a.get(id)
	st.hits.Add(hits)
	st.epochHits.Add(hits)
}

// Admission gates one block admission: extra is added to the tenant's
// sieve allocation threshold (DenyPenalty when the admission is denied
// outright). Quota denial means the tenant is at/over its soft quota;
// hard endurance throttle means its bucket is empty.
func (a *Accountant) Admission(id ID, now time.Time) (extra int, deny bool) {
	if a == nil {
		return 0, false
	}
	st := a.get(id)
	if a.cfg.Quotas && st.occupancy.Load() >= st.quota.Load() {
		st.quotaDenials.Add(1)
		a.quotaDenials.Add(1)
		deny = true
	}
	if a.cfg.EnduranceBytesPerDay > 0 {
		st.emu.Lock()
		a.refillLocked(st, now)
		lvl := a.levelLocked(st)
		st.emu.Unlock()
		switch lvl {
		case ThrottleHard:
			st.throttleDenials.Add(1)
			a.throttleDenial.Add(1)
			deny = true
		case ThrottleSoft:
			extra = throttlePenalty
		}
	}
	if deny {
		extra = DenyPenalty
	}
	return extra, deny
}

// OnAllocWrite charges blocks written into the cache on the tenant's
// behalf (sieve admissions, epoch batch installs) against its endurance
// bucket.
func (a *Accountant) OnAllocWrite(id ID, blocks int64, now time.Time) {
	if a == nil || blocks <= 0 {
		return
	}
	st := a.get(id)
	st.allocWrites.Add(blocks)
	if a.cfg.EnduranceBytesPerDay <= 0 {
		return
	}
	st.emu.Lock()
	a.refillLocked(st, now)
	st.tokens -= float64(blocks * block.Size)
	if st.tokens < 0 {
		st.tokens = 0
	}
	a.levelLocked(st)
	st.emu.Unlock()
}

// AllowanceBlocks returns how many allocation-writes the tenant's
// endurance bucket can afford right now (MaxInt64 with the budget off).
func (a *Accountant) AllowanceBlocks(id ID, now time.Time) int64 {
	if a == nil || a.cfg.EnduranceBytesPerDay <= 0 {
		return int64(^uint64(0) >> 1)
	}
	st := a.get(id)
	st.emu.Lock()
	a.refillLocked(st, now)
	n := int64(st.tokens) / block.Size
	st.emu.Unlock()
	if n < 0 {
		n = 0
	}
	return n
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

// NoteClip counts n of the tenant's epoch-selected blocks dropped by
// QoS (quota clip or an exhausted endurance budget).
func (a *Accountant) NoteClip(id ID, n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.get(id).clips.Add(n)
	a.selectionClips.Add(n)
}

// ClipSelection enforces quotas on an epoch's hottest-first selection:
// each tenant keeps at most its quota blocks, order preserved. The
// input slice is filtered in place. No-op (zero clips) with quotas off.
func (a *Accountant) ClipSelection(keys []block.Key) ([]block.Key, int64) {
	if a == nil || !a.cfg.Quotas {
		return keys, 0
	}
	return a.clip(keys, func(id ID) int64 { return a.get(id).quota.Load() })
}

// ClipAllowance enforces endurance budgets on the blocks an epoch swap
// would newly install: each tenant keeps at most the allocation-writes
// its bucket affords right now (AllowanceBlocks), order preserved. The
// input slice is filtered in place. No-op with the budget off.
func (a *Accountant) ClipAllowance(keys []block.Key, now time.Time) []block.Key {
	if !a.EnduranceEnabled() {
		return keys
	}
	out, _ := a.clip(keys, func(id ID) int64 { return a.AllowanceBlocks(id, now) })
	return out
}

// clip filters keys in place, order preserved: each tenant keeps its first
// budget(id) keys, budget read at the tenant's first key, and the rest
// count as clips.
func (a *Accountant) clip(keys []block.Key, budget func(ID) int64) ([]block.Key, int64) {
	left := make(map[ID]int64)
	out := keys[:0]
	var clipped int64
	for _, k := range keys {
		id := IDOf(k)
		n, seen := left[id]
		if !seen {
			n = budget(id)
		}
		left[id] = n - 1
		if n <= 0 {
			a.NoteClip(id, 1)
			clipped++
		} else {
			out = append(out, k)
		}
	}
	return out, clipped
}

// MaybeRepartition runs a repartition if the time-driven interval has
// elapsed. One atomic load on the fast path; safe to call per-op.
func (a *Accountant) MaybeRepartition(now time.Time) {
	if a == nil || a.cfg.RepartitionEvery <= 0 {
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
	a.Repartition(now)
}

// Repartition reassigns quotas by demand: each tenant gets the floor
// (CapacityBlocks/(floorDiv×N)) plus its share of the remaining
// capacity proportional to its interval hits, and the interval counters
// reset. An interval with no hits anywhere keeps the current split
// (there is no demand signal to act on — and resetting to an equal
// split would thrash quotas on idle systems). With quotas off this only
// resets the interval counters. Safe to call concurrently with
// accounting; assignment per tenant is independent, so map iteration
// order does not matter.
func (a *Accountant) Repartition(now time.Time) {
	if a == nil {
		return
	}
	_ = now // the signature matches the injected-clock call sites
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
	if !a.cfg.Quotas {
		for _, st := range a.tenants {
			st.epochHits.Store(0)
		}
		a.repartitions.Add(1)
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
	ThrottleDenials int64 `json:"throttle_denials"`
	SelectionClips  int64 `json:"selection_clips"`
	Throttles       int64 `json:"throttles"`
	Throttled       int   `json:"throttled"` // 0 none, 1 soft, 2 hard
	EnduranceTokens int64 `json:"endurance_tokens_bytes"`
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
		st.emu.Lock()
		tokens := int64(st.tokens)
		st.emu.Unlock()
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
			ThrottleDenials: st.throttleDenials.Load(),
			SelectionClips:  st.clips.Load(),
			Throttles:       st.throttles.Load(),
			Throttled:       int(st.throttled.Load()),
			EnduranceTokens: tokens,
		}
	}
	return out
}

// Totals aggregates the store-level QoS counters.
type Totals struct {
	Tenants         int64
	QuotaDenials    int64
	ThrottleDenials int64
	SelectionClips  int64
	Repartitions    int64
}

// Totals returns the aggregated counters.
func (a *Accountant) Totals() Totals {
	if a == nil {
		return Totals{}
	}
	return Totals{
		Tenants:         a.count.Load(),
		QuotaDenials:    a.quotaDenials.Load(),
		ThrottleDenials: a.throttleDenial.Load(),
		SelectionClips:  a.selectionClips.Load(),
		Repartitions:    a.repartitions.Load(),
	}
}
