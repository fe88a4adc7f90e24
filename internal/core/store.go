// Package core is the SieveStore library proper: a highly-selective,
// ensemble-level block cache layered over any storage backend.
//
// A Store intercepts block I/O destined for a multi-server storage ensemble
// (the Backend) and serves the popular blocks from a small cache — the
// paper's SSD — admitting blocks only through a sieve so that the mass of
// low-reuse blocks costs neither allocation-writes nor pollution:
//
//	be := store.NewMem()                       // or any Backend
//	st, _ := core.Open(be, core.Options{})     // SieveStore-C, 16 GB cache
//	st.WriteAt(0, 0, data, 0)                  // write-through
//	st.ReadAt(0, 0, buf, 0)                    // hits served from cache
//
// Both paper variants are available: the continuous sieve (SieveStore-C,
// default) admits a block on its n-th recent miss; the discrete variant
// (SieveStore-D) logs accesses and batch-allocates the blocks whose epoch
// access count crosses a threshold, via the offline per-key-reduction
// pipeline in internal/sieved.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/sieve"
	"repro/internal/sieved"
	"repro/internal/tenant"
)

// Backend is the underlying storage ensemble. It matches
// internal/store.Backend; any implementation may be supplied.
type Backend interface {
	ReadAt(server, volume int, p []byte, off uint64) error
	WriteAt(server, volume int, p []byte, off uint64) error
}

// Variant selects the sieving mechanism.
type Variant int

const (
	// VariantC is SieveStore-C: online, hysteresis-based lazy allocation
	// through the two-tier IMCT/MCT sieve (§3.3).
	VariantC Variant = iota
	// VariantD is SieveStore-D: offline access counting with epoch batch
	// allocation (§3.2).
	VariantD
)

// String names the variant.
func (v Variant) String() string {
	if v == VariantD {
		return "SieveStore-D"
	}
	return "SieveStore-C"
}

// Options configures a Store.
type Options struct {
	// CacheBytes is the cache capacity (default 16 GiB; must be a multiple
	// of the 512-byte block size).
	CacheBytes int64
	// Shards splits the store into this many shards, each with its own
	// lock, slot table, and sieve state, so concurrent requests rarely wait
	// on one another; a block lives in the shard its 4 KiB page hashes to.
	// Must be a power of two; 0 or 1 (the default) keeps the single
	// fully-associative cache of the paper. Capacity is partitioned evenly
	// across shards, so with Shards > 1 eviction is shard-local — hit
	// ratios can differ marginally from the global-LRU figure.
	Shards int
	// Policy selects the cache's replacement engine: "lru" (default, the
	// paper's policy) or "sieve" (case-insensitive; cache.NewPolicy).
	// SIEVE trades LRU's per-hit list surgery for a single bit update under
	// the shard lock — measurably cheaper hits at an equal (±1%) hit ratio
	// on the golden Zipf workload, since the sieve already admits only hot
	// blocks.
	Policy string
	// Variant selects SieveStore-C (default) or SieveStore-D.
	Variant Variant
	// SieveC configures the continuous sieve (VariantC). With Shards > 1
	// each shard runs its own sieve over ⌈IMCTSize/Shards⌉ slots, rounded
	// up to whole eight-slot lines, so total metastate is unchanged but
	// for the rounding.
	SieveC sieve.CConfig
	// DThreshold is the epoch access-count threshold (VariantD; default 10).
	DThreshold int64
	// Epoch is the discrete allocation epoch (VariantD; default 24 h).
	Epoch time.Duration
	// SpillDir hosts SieveStore-D's partitioned access logs. Empty means a
	// temporary directory owned (and removed) by the Store.
	SpillDir string
	// WriteBack enables write-back caching: writes to cached blocks stay
	// in the cache (marked dirty) and reach the ensemble only on eviction,
	// Flush, or Close. The default is write-through (the backend is always
	// authoritative), which is what the paper's appliance model implies.
	WriteBack bool
	// TrackLatency records the latency distribution of ReadAt/WriteAt calls
	// into LatencyHistograms: one call in latencySample at random, and every
	// traced call, is timed. (Stats counts every call either way.)
	// Allocation-free; off by default so trace replay stays allocation- and
	// syscall-identical.
	TrackLatency bool
	// TraceSample enables sampled operation tracing: one in every
	// TraceSample ReadAt/WriteAt calls records an OpTrace lifecycle record
	// (arrival, shard, hit/miss/coalesce/admission counts, whole-call
	// latency) into a ring of the last traceRingSize records, readable via
	// Traces. 0 disables tracing; 1 traces every operation. The unsampled
	// hot path costs one atomic add.
	TraceSample int
	// Now supplies time; nil means time.Now. Injectable for tests and
	// trace replay.
	Now func() time.Time
	// TenantTracking enables per-tenant accounting (occupancy, hit
	// ratios, allocation-writes) keyed by the (server, volume) identity
	// every request carries, surfaced via TenantStats. Implied by
	// TenantQuotas; on its own it only observes.
	// Off (the default), every path is byte-identical to a tenant-blind
	// store.
	TenantTracking bool
	// TenantQuotas enforces per-tenant soft capacity quotas: a tenant
	// at/over its quota is denied sieve admission (its misses still feed
	// the sieve's counters) and its share of a VariantD epoch selection
	// is clipped. Quotas repartition by realized per-tenant reuse — each
	// interval's hits earn the matching share of capacity above a small
	// guaranteed floor — at an interval the store already keeps: once a
	// sieve subwindow (SieveC.Window/SieveC.Subwindows, the interval the
	// sieve ages demand over) under VariantC, and at each epoch boundary
	// under VariantD. See internal/tenant.
	TenantQuotas bool
}

// DefaultShards returns the appliance's default shard count, sized for lock
// contention rather than cores: the smallest power of two ≥ 4 × GOMAXPROCS,
// capped at 256. A page hit holds its shard lock for less than one
// sync.Mutex spin round, so two requests meeting on one lock spin longer
// than either hit; four shards per CPU make such meetings rare.
func DefaultShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	s := 1
	for s < n && s < 256 {
		s <<= 1
	}
	return s
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.CacheBytes == 0 {
		out.CacheBytes = 16 << 30
	}
	if out.CacheBytes < block.Size || out.CacheBytes%block.Size != 0 {
		return out, fmt.Errorf("core: CacheBytes %d must be a positive multiple of %d", out.CacheBytes, block.Size)
	}
	if out.Shards == 0 {
		out.Shards = 1
	}
	if out.Shards < 1 || out.Shards&(out.Shards-1) != 0 {
		return out, fmt.Errorf("core: Shards %d must be a power of two", out.Shards)
	}
	if int64(out.Shards) > out.CacheBytes/block.Size {
		return out, fmt.Errorf("core: Shards %d exceeds the cache's %d blocks", out.Shards, out.CacheBytes/block.Size)
	}
	if _, err := cache.NewPolicy(out.Policy, 1); err != nil {
		return out, err
	}
	if out.SieveC.IMCTSize == 0 {
		out.SieveC = sieve.DefaultCConfig()
	}
	if out.DThreshold == 0 {
		out.DThreshold = sieved.DefaultThreshold
	}
	if out.DThreshold < 1 {
		return out, fmt.Errorf("core: DThreshold must be ≥1, got %d", out.DThreshold)
	}
	if out.Epoch == 0 {
		out.Epoch = 24 * time.Hour
	}
	if out.Epoch < time.Minute {
		return out, fmt.Errorf("core: Epoch %v too short", out.Epoch)
	}
	if out.TraceSample < 0 {
		return out, fmt.Errorf("core: TraceSample must be ≥0, got %d", out.TraceSample)
	}
	if out.Now == nil {
		out.Now = time.Now
	}
	if out.TenantQuotas {
		out.TenantTracking = true
	}
	return out, nil
}

// Stats counts the Store's activity. Blocks are 512-byte units.
type Stats struct {
	Reads, Writes       int64 // block accesses by kind
	ReadHits, WriteHits int64 // blocks served/updated in cache
	AllocWrites         int64 // blocks written into the cache on admission
	Evictions           int64 // blocks evicted
	EpochMoves          int64 // blocks batch-moved at epoch boundaries (VariantD)
	Epochs              int64 // completed epoch rotations (VariantD)
	BackendReads        int64 // read requests issued to the ensemble
	BackendWrites       int64 // write requests issued to the ensemble
	CachedBlocks        int64 // current residency
	CapacityBlocks      int64
	DirtyBlocks         int64 // write-back blocks awaiting flush
	FlushWrites         int64 // dirty blocks written back to the ensemble
	BackendBytesRead    int64
	BackendBytesWritten int64
	CoalescedReads      int64 // miss blocks served by joining another caller's write or admitted fetch in flight
	RotateFailures      int64 // epoch rotations aborted before the swap by a backend or log error (VariantD)
	ResetFailures       int64 // epoch log resets that failed after the swap committed — the rotation still counts in Epochs (VariantD)
	FlushErrors         int64 // dirty write-backs that failed (the blocks stay dirty and resident)
	SpillDisables       int64 // times SieveStore-D access logging was disabled by spill faults
	SelectOverflow      int64 // hottest-first selected blocks dropped for capacity at epoch swaps (skewed key→shard splits, dirty retentions displacing the selection, tag-store truncation) — VariantD
	GroupCommits        int64 // write-back sweeps a Flush started
	CoalescedFlushes    int64 // Flush calls that rode on another caller's sweep
	Tenants             int64 // distinct (server, volume) tenants seen (tenant tracking only)
	QuotaDenials        int64 // admissions denied because the tenant was at/over its soft quota
	TenantClips         int64 // epoch-selected blocks clipped by tenant quota (VariantD)
	TenantRepartitions  int64 // quota repartitions run (once a sieve subwindow under VariantC, at epoch boundaries under VariantD; none without quotas)
	ReadOps, WriteOps   int64 // ReadAt/WriteAt calls that passed the geometry check, exact
	ReadErrors          int64 // ReadAt calls that returned an error
	WriteErrors         int64 // WriteAt calls that returned an error
}

// StatField is one Stats field published as a series: its name under
// sievestore.core, its kind, whether only tenant tracking sets it, and
// where it lives in a Stats.
type StatField struct {
	Name   string
	Kind   metrics.Kind
	Tenant bool
	Of     func(*Stats) *int64
}

// StatFields lists every Stats field once. Stats.Add sums by it and the
// appliance's /metrics publishes by it; a field's doc comment is its help.
var StatFields = []StatField{
	{"reads", counter, false, func(s *Stats) *int64 { return &s.Reads }},
	{"writes", counter, false, func(s *Stats) *int64 { return &s.Writes }},
	{"read_hits", counter, false, func(s *Stats) *int64 { return &s.ReadHits }},
	{"write_hits", counter, false, func(s *Stats) *int64 { return &s.WriteHits }},
	{"alloc_writes", counter, false, func(s *Stats) *int64 { return &s.AllocWrites }},
	{"evictions", counter, false, func(s *Stats) *int64 { return &s.Evictions }},
	{"epoch_moves", counter, false, func(s *Stats) *int64 { return &s.EpochMoves }},
	{"epochs", counter, false, func(s *Stats) *int64 { return &s.Epochs }},
	{"backend_reads", counter, false, func(s *Stats) *int64 { return &s.BackendReads }},
	{"backend_writes", counter, false, func(s *Stats) *int64 { return &s.BackendWrites }},
	{"cached_blocks", gauge, false, func(s *Stats) *int64 { return &s.CachedBlocks }},
	{"capacity_blocks", gauge, false, func(s *Stats) *int64 { return &s.CapacityBlocks }},
	{"dirty_blocks", gauge, false, func(s *Stats) *int64 { return &s.DirtyBlocks }},
	{"flush_writes", counter, false, func(s *Stats) *int64 { return &s.FlushWrites }},
	{"backend_bytes_read", counter, false, func(s *Stats) *int64 { return &s.BackendBytesRead }},
	{"backend_bytes_written", counter, false, func(s *Stats) *int64 { return &s.BackendBytesWritten }},
	{"coalesced_reads", counter, false, func(s *Stats) *int64 { return &s.CoalescedReads }},
	{"rotate_failures", counter, false, func(s *Stats) *int64 { return &s.RotateFailures }},
	{"reset_failures", counter, false, func(s *Stats) *int64 { return &s.ResetFailures }},
	{"flush_errors", counter, false, func(s *Stats) *int64 { return &s.FlushErrors }},
	{"spill_disables", counter, false, func(s *Stats) *int64 { return &s.SpillDisables }},
	{"select_overflow", counter, false, func(s *Stats) *int64 { return &s.SelectOverflow }},
	{"group_commits", counter, false, func(s *Stats) *int64 { return &s.GroupCommits }},
	{"coalesced_flushes", counter, false, func(s *Stats) *int64 { return &s.CoalescedFlushes }},
	{"tenants", counter, true, func(s *Stats) *int64 { return &s.Tenants }},
	{"quota_denials", counter, true, func(s *Stats) *int64 { return &s.QuotaDenials }},
	{"tenant_clips", counter, true, func(s *Stats) *int64 { return &s.TenantClips }},
	{"tenant_repartitions", counter, true, func(s *Stats) *int64 { return &s.TenantRepartitions }},
	{"read_ops", counter, false, func(s *Stats) *int64 { return &s.ReadOps }},
	{"write_ops", counter, false, func(s *Stats) *int64 { return &s.WriteOps }},
	{"read_errors", counter, false, func(s *Stats) *int64 { return &s.ReadErrors }},
	{"write_errors", counter, false, func(s *Stats) *int64 { return &s.WriteErrors }},
}

const counter, gauge = metrics.KindCounter, metrics.KindGauge

// Add adds o's fields into the receiver, gauges included. Stats sums its
// shards with it (whose store-level fields — Epochs, the tenant totals,
// … — are zero and set afterwards).
func (s *Stats) Add(o Stats) {
	for _, f := range StatFields {
		*f.Of(s) += *f.Of(&o)
	}
}

// Hits returns total block hits.
func (s Stats) Hits() int64 { return s.ReadHits + s.WriteHits }

// HitRatio returns the captured fraction of block accesses.
func (s Stats) HitRatio() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("core: store is closed")

// ErrAlignment rejects I/O that is not 512-byte aligned.
var ErrAlignment = errors.New("core: offset and length must be multiples of 512")

// ErrRange rejects I/O beyond the addressable range: a server or volume ID
// past block.MaxServers or block.MaxVolumes, a block past MaxBlockNumber.
var ErrRange = errors.New("core: request beyond addressable block range")

// Store is a SieveStore cache instance. It is safe for concurrent use.
//
// Concurrency model: the cache is split into Options.Shards page-hash
// shards, each guarded by its own mutex over that shard's slot table,
// in-flight table and stats; the shard's sieve has a lock of its own, taken
// with the shard's released, so counting a page's misses never stands in
// front of a hit. No shard lock is held across hot-path backend I/O: a read
// fetches its misses unlocked — the admitted ones reserved in the in-flight
// table, so duplicate concurrent misses coalesce onto one fetch — and
// re-locks to install. Writes reserve their key range — shards in ascending
// index order, the global deadlock-avoidance rule — so backend-write order
// and cache-update order cannot invert. Cross-shard operations (rotation,
// Flush, Close, snapshots) are staged per shard in the same order.
// SieveStore-D access logging happens before any shard lock is taken.
type Store struct {
	backend Backend
	opts    Options

	shards    []*shard
	shardMask uint64
	logger    *sieved.Logger

	// acct is the multi-tenant QoS accountant (nil unless
	// Options.TenantTracking — see internal/tenant). It is a leaf in the
	// lock order: safe to call under any shard lock, never calls back.
	acct *tenant.Accountant

	closed atomic.Bool

	// rotMu is held across every epoch transition and snapshot load, and
	// guards the epoch schedule (start, curEpoch). RotateEpoch, Close and
	// LoadSnapshot Lock it; the op path's maybeRotate only TryLocks it,
	// since a transition already holding it covers the due boundary.
	// deadline caches the next boundary as UnixNanos (MaxInt64 for
	// VariantC) so the hot path checks it with one atomic load, no lock.
	rotMu    sync.Mutex
	start    time.Time
	curEpoch int64
	deadline atomic.Int64

	// sieveBase is the immutable Open time used for sieve access
	// timestamps. (start also begins there but is reset by RotateEpoch,
	// which must not rewind the sieve's windows.)
	sieveBase time.Time

	// fetchReads and fetchBytes count the ensemble reads (and their bytes) of
	// read misses and epoch batch fetches, writeReqs and writeBytes the
	// ensemble writes of WriteAt: charged with no lock.
	fetchReads, fetchBytes atomic.Int64
	writeReqs, writeBytes  atomic.Int64

	epochs         atomic.Int64
	rotateFailures atomic.Int64
	resetFailures  atomic.Int64

	// Spill-disable state (see spillFaultThreshold): spillDisabled
	// switches SieveStore-D access logging off for the rest of the epoch
	// after spillFaultThreshold consecutive spill errors; one access per
	// spillProbeEvery (lastSpillProbe, UnixNanos) still tries the logger,
	// and its success switches logging back on.
	spillFaultStreak atomic.Int64
	spillDisabled    atomic.Bool
	spillDisables    atomic.Int64
	lastSpillProbe   atomic.Int64

	ownSpill string // temp dir to remove on Close, if any

	// monoBase anchors latency timestamps: time.Since(monoBase) reads only
	// the monotonic clock (one nanotime call), where time.Now() also reads
	// the wall clock — roughly 4x the cost on the VMs this runs on. Latency
	// tracking needs deltas, never wall time.
	monoBase time.Time

	// lat accounts ReadAt (opRead) and WriteAt (opWrite) calls.
	lat [2]opLatency

	// trace is the sampled op-lifecycle ring (nil unless TraceSample > 0).
	trace *TraceRing

	// Group commit (see Flush): flushing is the write-back sweep running
	// now, if any; flushNext is the sweep queued behind it, collecting the
	// Flush calls that arrive meanwhile. flushMu guards both; the sweeps
	// run with it released.
	flushMu          sync.Mutex
	flushing         *flushBatch
	flushNext        *flushBatch
	groupCommits     atomic.Int64
	coalescedFlushes atomic.Int64
}

// traceRingSize is how many sampled trace records the ring retains.
const traceRingSize = 256

// Open validates opts and returns a ready Store over backend.
func Open(backend Backend, opts Options) (*Store, error) {
	if backend == nil {
		return nil, errors.New("core: nil backend")
	}
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	now := o.Now()
	s := &Store{
		backend:   backend,
		opts:      o,
		shardMask: uint64(o.Shards - 1),
		start:     now,
		sieveBase: now,
		monoBase:  time.Now(),
	}
	s.deadline.Store(math.MaxInt64)
	if o.TraceSample > 0 {
		s.trace = NewTraceRing(traceRingSize, o.TraceSample)
	}
	caps := cache.PartitionCapacity(int(o.CacheBytes/block.Size), o.Shards)
	s.shards = make([]*shard, o.Shards)
	for i := range s.shards {
		tab, err := cache.NewPolicy(o.Policy, caps[i])
		if err != nil {
			return nil, err
		}
		s.shards[i] = newShard(s, i, tab)
	}
	if o.TenantTracking {
		// VariantC repartitions once a sieve subwindow, the interval the
		// sieve ages demand over; VariantD only at epoch boundaries.
		var every time.Duration
		if o.Variant == VariantC {
			every = o.SieveC.Window / time.Duration(max(o.SieveC.Subwindows, 1))
		}
		acct, err := tenant.New(tenant.Config{
			CapacityBlocks:   o.CacheBytes / block.Size,
			Quotas:           o.TenantQuotas,
			RepartitionEvery: every,
		})
		if err != nil {
			return nil, err
		}
		s.acct = acct
	}
	switch o.Variant {
	case VariantC:
		// Each shard sieves its own slice of the key space; splitting the
		// IMCT keeps total metastate (and the aliasing rate, since each
		// shard sees ~1/Shards of the keys) unchanged.
		cfg := o.SieveC
		cfg.IMCTSize = (cfg.IMCTSize + o.Shards - 1) / o.Shards
		for _, sh := range s.shards {
			sc, err := sieve.NewC(cfg)
			if err != nil {
				return nil, err
			}
			sh.sieveC = sc
		}
	case VariantD:
		if err := s.openLogger(); err != nil {
			return nil, err
		}
		s.updateDeadlineLocked()
	default:
		return nil, fmt.Errorf("core: unknown variant %d", o.Variant)
	}
	return s, nil
}

// openLogger opens SieveStore-D's access logger. A caller-supplied spill
// dir is durable state: the logger resumes (and salvages) the epoch in
// progress there instead of truncating it — a daemon restart must not
// discard the day's access counts. Otherwise the logger gets a temporary
// dir the store owns. The partition count stays a multiple of the shard
// count: both reduce the same page hash, so every partition holds keys of
// exactly one shard (partition p feeds shard p mod Shards) and concurrent
// shards never contend on a partition lock.
func (s *Store) openLogger() (err error) {
	partitions := max(sieved.DefaultPartitions, s.opts.Shards)
	if s.opts.SpillDir != "" {
		s.logger, err = sieved.OpenLogger(s.opts.SpillDir, partitions)
		return err
	}
	dir, err := os.MkdirTemp("", "sievestore-spill-*")
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if s.logger, err = sieved.NewLogger(dir, partitions); err != nil {
		os.RemoveAll(dir)
		return err
	}
	s.ownSpill = dir
	return nil
}

// Variant returns the store's sieving variant.
func (s *Store) Variant() Variant { return s.opts.Variant }

// Shards returns the store's shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Policy returns the canonical name of the replacement engine the shards
// run ("LRU" or "SIEVE"). Immutable after Open.
func (s *Store) Policy() string { return s.shards[0].tab.Name() }

// shardIndex maps a key to its shard by the hash of its 4 KiB page — the
// hash the sieved logger reduces to a partition, so shard i's keys land in
// exactly the partitions ≡ i (mod Shards). An aligned 4 KiB request takes one
// lock, and a shard's dirty or selected blocks sit in page-long runs.
func (s *Store) shardIndex(key block.Key) int {
	return int(key.PageHash() & s.shardMask)
}

// Stats returns a snapshot of the store's counters, merged across shards.
// Each shard is snapshotted under its own lock; concurrent operations may
// land between shard snapshots, so cross-shard sums are momentary, not a
// single global instant (exact with Shards=1).
func (s *Store) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		sub := sh.stats
		sub.CachedBlocks = int64(sh.tab.Len())
		sub.DirtyBlocks = int64(sh.nDirty)
		sh.mu.Unlock()
		st.Add(sub)
	}
	if s.acct != nil {
		t := s.acct.Totals()
		st.Tenants = t.Tenants
		st.QuotaDenials = t.QuotaDenials
		st.TenantClips = t.SelectionClips
		st.TenantRepartitions = t.Repartitions
	}
	st.BackendReads += s.fetchReads.Load()
	st.BackendBytesRead += s.fetchBytes.Load()
	st.BackendWrites += s.writeReqs.Load()
	st.BackendBytesWritten += s.writeBytes.Load()
	st.Epochs = s.epochs.Load()
	st.RotateFailures = s.rotateFailures.Load()
	st.ResetFailures = s.resetFailures.Load()
	st.SpillDisables = s.spillDisables.Load()
	st.GroupCommits = s.groupCommits.Load()
	st.CoalescedFlushes = s.coalescedFlushes.Load()
	st.ReadOps += s.lat[opRead].closed.Load()
	st.WriteOps += s.lat[opWrite].closed.Load()
	st.ReadErrors = s.lat[opRead].errs.Load()
	st.WriteErrors = s.lat[opWrite].errs.Load()
	return st
}

// latencySample is the share of calls TrackLatency times, one in eight at
// random: two clock reads and an Observe cost a hit as much as the rest.
const latencySample = 8

// opRead and opWrite index the two kinds of I/O call.
const opRead, opWrite = 0, 1

// opLatency accounts one kind of I/O call. Every call is counted exactly:
// under the first shard lock it takes (shard.stats.ReadOps/WriteOps), or in
// closed if it was refused at the closed gate before taking one; errs
// counts the calls that failed. hist holds the service times of the timed
// sample (Store.do).
type opLatency struct {
	hist   metrics.Histogram
	errs   atomic.Int64
	closed atomic.Int64
}

// Close releases the store's resources. In write-back mode the dirty
// blocks are written back first (staged, without holding any shard lock
// across the backend I/O); write-through stores have nothing to flush.
func (s *Store) Close() error {
	// Mark closed under rotMu: an epoch transition in progress finishes
	// first (it expects the logger and spill directory to outlive it), and
	// none starts after. Marking closed first also means no new I/O can
	// dirty blocks behind the drains: an operation already past its entry
	// check either sees closed under its shard's lock (and writes through
	// instead of dirtying) or holds the shard lock before our drain does —
	// in which case the drain below sees its dirty blocks.
	s.rotMu.Lock()
	wasClosed := s.closed.Swap(true)
	s.rotMu.Unlock()
	if wasClosed {
		return nil
	}

	var err error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if derr := sh.drainDirtyLocked(); err == nil {
			err = derr
		}
		sh.mu.Unlock()
	}
	if s.logger != nil {
		if lerr := s.logger.Close(); err == nil {
			err = lerr
		}
	}
	if s.ownSpill != "" {
		if rmErr := os.RemoveAll(s.ownSpill); err == nil {
			err = rmErr
		}
	}
	return err
}

// checkIO validates a request's IDs and geometry, at every entry point. The
// range checks matter for requests arriving off the wire: block.MakeKey
// panics on an out-of-range component, a caller bug, and a remote peer's
// stray ID or offset must surface as an error, not take the daemon down.
func checkIO(server, volume int, off uint64, n int) error {
	if off%block.Size != 0 || n%block.Size != 0 || n <= 0 {
		return ErrAlignment
	}
	if end := off + uint64(n); end < off || (end-1)/block.Size > block.MaxBlockNumber ||
		uint(server) >= block.MaxServers || uint(volume) >= block.MaxVolumes {
		return ErrRange
	}
	return nil
}

// do is the frame both I/O entry points share: geometry check, trace
// sampling, an error count, and — only for an operation that drew a trace
// or, with latency tracked, one of latencySample at random — two monotonic
// clock reads around path. path counts the call itself (opLatency).
func (s *Store) do(op string, kind int,
	path func(server, volume int, p []byte, off uint64, tr *OpTrace) error,
	server, volume int, p []byte, off uint64) error {
	if err := checkIO(server, volume, off, len(p)); err != nil {
		return err
	}
	tr := s.beginTrace(op, server, volume, p, off)
	timed := tr != nil || s.opts.TrackLatency && rand.Uint32()%latencySample == 0
	var start time.Duration
	if timed {
		start = time.Since(s.monoBase)
	}
	err := path(server, volume, p, off, tr)
	if err != nil {
		s.lat[kind].errs.Add(1)
	}
	if timed {
		d := time.Since(s.monoBase) - start
		if s.opts.TrackLatency {
			s.lat[kind].hist.Observe(d)
		}
		s.endTrace(tr, d, err)
	}
	return err
}

// beginOp is the prologue both I/O paths share: a due epoch rotation, the
// closed gate, the tenant tick, then the SieveStore-D access log and the
// tenant's access charge. It returns the request's first key. A call
// refused at the gate takes no shard lock, so it is counted here.
func (s *Store) beginOp(server, volume int, off uint64, nBlocks, kind int) (block.Key, error) {
	s.maybeRotate()
	if s.closed.Load() {
		s.lat[kind].closed.Add(1)
		return 0, ErrClosed
	}
	s.tenantTick()
	first := off / block.Size
	s.logAccess(server, volume, first, nBlocks)
	s.tenantAccess(server, volume, int64(nBlocks), kind == opWrite)
	return block.MakeKey(server, volume, first), nil
}

// A run word names one page run of a request — its blocks inside one 4 KiB
// page, which share a shard: the shard above runShardShift, the run's first
// position in the request below it, its length in the low runLenBits.
const (
	runShardShift = 40
	runLenBits    = 4
	runsInline    = 8  // run words callers keep on their stack: a 28 KiB request
	missInline    = 32 // missed positions a read keeps on its stack: 16 KiB
)

// pageRuns appends one word per page run of [key0, key0+n), sorted
// ascending: shards in index order, a shard's runs together and in request
// order. Every walk that may lock more than one shard follows it, one
// critical section per shard; ascending shard order is the store's global
// lock-ordering rule. A request inside one page, the common case, is one
// word: one hash, nothing to sort. dst is scratch, usually a stack array.
func (s *Store) pageRuns(dst []uint64, key0 block.Key, n int) []uint64 {
	for lo := 0; lo < n; {
		key := key0 + block.Key(lo)
		l := min(n-lo, block.BlocksPerPage-int(key%block.BlocksPerPage))
		dst = append(dst, uint64(s.shardIndex(key))<<runShardShift|uint64(lo)<<runLenBits|uint64(l))
		lo += l
	}
	if len(dst) > 1 && s.shardMask != 0 {
		slices.Sort(dst)
	}
	return dst
}

// runPage returns the positions [lo, hi) in the request over key0 that run
// word w names, the page they lie in (Key.Page) and lo's block in it.
func runPage(key0 block.Key, w uint64) (lo, hi int, page block.Key, b int) {
	lo = int((w & (1<<runShardShift - 1)) >> runLenBits)
	k := key0 + block.Key(lo)
	return lo, lo + int(w&(1<<runLenBits-1)), k.Page(), int(k % block.BlocksPerPage)
}

// shardRuns returns the shard that runs[lo] names and the end of its words.
func (s *Store) shardRuns(runs []uint64, lo int) (sh *shard, hi int) {
	si := runs[lo] >> runShardShift
	for hi = lo + 1; hi < len(runs) && runs[hi]>>runShardShift == si; hi++ {
	}
	return s.shards[si], hi
}

// eachShard calls do once per shard of runs, in order, holding that shard's
// lock; runs[lo:hi] are the shard's words (the bounds, not the slice: an
// argument to a func value escapes, and runs usually sits on a stack).
func (s *Store) eachShard(runs []uint64, do func(sh *shard, lo, hi int)) {
	for lo := 0; lo < len(runs); {
		sh, hi := s.shardRuns(runs, lo)
		sh.mu.Lock()
		do(sh, lo, hi)
		sh.mu.Unlock()
		lo = hi
	}
}

// runIO calls io once per maximal run of consecutive positions in at, over
// those blocks of p (the request over key0), with no lock held, and stops
// at the first error. Runs follow block adjacency, not shard boundaries:
// backend request geometry is unchanged by sharding. Each request that
// succeeds is charged to reqs and bytes. failed is where the failed run
// starts, len(p)/block.Size when none failed.
func (s *Store) runIO(io func(server, volume int, p []byte, off uint64) error, reqs, bytes *atomic.Int64,
	key0 block.Key, p []byte, at []uint64) (failed int, err error) {
	if s.shardMask != 0 {
		slices.Sort(at) // walks left them in shard order
	}
	for lo := 0; lo < len(at); {
		hi := lo + 1
		for hi < len(at) && at[hi] == at[hi-1]+1 {
			hi++
		}
		i, j := int(at[lo]), int(at[hi-1])+1
		if err := io(key0.Server(), key0.Volume(), p[i*block.Size:j*block.Size], (key0 + block.Key(i)).Offset()); err != nil {
			return i, err
		}
		reqs.Add(1)
		bytes.Add(int64(j-i) * block.Size)
		lo = hi
	}
	return len(p) / block.Size, nil
}

// now returns the injected current time.
func (s *Store) now() time.Time { return s.opts.Now() }

// LatencyHistograms returns mergeable log-bucketed distributions of the
// timed ReadAt and WriteAt calls' service times (Options.TrackLatency).
// Empty unless TrackLatency is set.
func (s *Store) LatencyHistograms() (read, write metrics.HistogramSnapshot) {
	return s.lat[opRead].hist.Snapshot(), s.lat[opWrite].hist.Snapshot()
}

// SieveStats sums the per-shard continuous-sieve (IMCT/MCT) counters.
// All-zero for VariantD, which has no online sieve.
func (s *Store) SieveStats() sieve.CStats {
	var out sieve.CStats
	for _, sh := range s.shards {
		if sh.sieveC != nil {
			sh.sieveMu.Lock()
			out.Add(sh.sieveC.Stats())
			sh.sieveMu.Unlock()
		}
	}
	return out
}

// SpillStats returns the SieveStore-D access logger's partition stats;
// ok is false for VariantC (no logger).
func (s *Store) SpillStats() (st sieved.LoggerStats, ok bool) {
	if s.logger == nil {
		return sieved.LoggerStats{}, false
	}
	return s.logger.Stats(), true
}

// Contains reports whether a block is currently cached (test/debug aid).
func (s *Store) Contains(server, volume int, off uint64) bool {
	key := block.MakeKey(server, volume, off/block.Size)
	sh := s.shards[s.shardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tab.Contains(key)
}
