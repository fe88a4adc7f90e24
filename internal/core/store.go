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
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
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
	// lock, slot table, and sieve state, so the hit path scales with cores;
	// a block lives in the shard its 4 KiB page hashes to. Must be a power
	// of two; 0 or 1 (the default) keeps the single fully-associative cache
	// of the paper. Capacity is partitioned evenly across shards, so with
	// Shards > 1 eviction is shard-local — hit ratios can differ marginally
	// from the global-LRU figure.
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
	// each shard runs its own sieve over IMCTSize/Shards slots so total
	// metastate is unchanged.
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
	// TrackLatency records whole-call ReadAt/WriteAt service times into
	// Stats.ReadLatency/WriteLatency and the latency histograms returned
	// by LatencyHistograms (a few atomic ops per call, allocation-free;
	// off by default so trace replay stays allocation- and
	// syscall-identical).
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
	// TenantQuotas and EnduranceBytesPerDay; on its own it only observes.
	// Off (the default), every path is byte-identical to a tenant-blind
	// store.
	TenantTracking bool
	// TenantQuotas enforces per-tenant soft capacity quotas: a tenant
	// at/over its quota is denied sieve admission (its misses still feed
	// the sieve's counters) and its share of a VariantD epoch selection
	// is clipped. Quotas repartition by realized per-tenant reuse — each
	// interval's hits earn the matching share of capacity above a small
	// guaranteed floor — every TenantRepartitionEvery and at VariantD
	// epoch boundaries. See internal/tenant.
	TenantQuotas bool
	// EnduranceBytesPerDay is the SSD endurance envelope: each tenant's
	// allocation-writes drain a token bucket refilling at the tenant's
	// capacity share of this daily rate. Running low raises the tenant's
	// sieve threshold; an empty bucket denies admission until it refills.
	// 0 (the default) disables the endurance budget.
	EnduranceBytesPerDay int64
	// TenantRepartitionEvery is the time-driven quota repartition
	// interval (default 1 minute). Negative disables the timer, leaving
	// only VariantD epoch-boundary repartitions.
	TenantRepartitionEvery time.Duration
}

// DefaultShards returns the appliance's default shard count: GOMAXPROCS
// rounded up to a power of two (capped at 256).
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
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
	if out.EnduranceBytesPerDay < 0 {
		return out, fmt.Errorf("core: EnduranceBytesPerDay must be ≥0, got %d", out.EnduranceBytesPerDay)
	}
	if out.TenantQuotas || out.EnduranceBytesPerDay > 0 {
		out.TenantTracking = true
	}
	if out.TenantRepartitionEvery == 0 {
		out.TenantRepartitionEvery = time.Minute
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
	ThrottleDenials     int64 // admissions denied by an empty tenant endurance bucket
	TenantClips         int64 // epoch-selected blocks clipped by tenant quota or endurance budget (VariantD)
	TenantRepartitions  int64 // quota repartitions run (time-driven and epoch-boundary)

	// ReadLatency/WriteLatency aggregate whole-call ReadAt/WriteAt service
	// times when Options.TrackLatency is set (zero otherwise).
	ReadLatency  metrics.OpLatencySnapshot
	WriteLatency metrics.OpLatencySnapshot
}

// Add adds o's counters into the receiver: every int64 field, gauges
// included. Stats sums its shards with it (whose store-level fields —
// Epochs, the tenant totals, … — are zero and set afterwards), and a
// cluster gateway its nodes.
func (s *Stats) Add(o Stats) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(o)
	for i := range dst.NumField() {
		if f := dst.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(f.Int() + src.Field(i).Int())
		}
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

	// rotMu guards the epoch schedule (start, curEpoch) and the rotating
	// flag; rotCond is broadcast when a transition ends. deadline caches
	// the next boundary as UnixNanos (MaxInt64 for VariantC) so the hot
	// path checks it with one atomic load, no lock.
	rotMu    sync.Mutex
	rotCond  *sync.Cond
	rotating bool
	start    time.Time
	curEpoch int64
	deadline atomic.Int64

	// sieveBase is the immutable Open time used for sieve access
	// timestamps. (start also begins there but is reset by RotateEpoch,
	// which must not rewind the sieve's windows.)
	sieveBase time.Time

	// fetchReads and fetchBytes count the ensemble reads (and their bytes) of
	// read misses and epoch batch fetches: charged with no lock.
	fetchReads, fetchBytes atomic.Int64

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

	// histRead/histWrite bucket whole-call service times into mergeable
	// log-linear histograms (TrackLatency only) and are the single source
	// of truth for latency accounting: Stats derives the flat
	// OpLatencySnapshot (ops/total/max) from the histogram so the hot path
	// pays one Observe, not two. Zero-value ready; Observe is
	// allocation-free. errRead/errWrite count failed calls separately —
	// the histogram buckets durations only.
	histRead  metrics.Histogram
	histWrite metrics.Histogram
	errRead   atomic.Int64
	errWrite  atomic.Int64

	// trace is the sampled op-lifecycle ring (nil unless TraceSample > 0).
	trace *metrics.TraceRing

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

// flushBatch is one write-back sweep: every Flush riding on it shares its
// outcome.
type flushBatch struct {
	done chan struct{}
	err  error
}

const (
	// traceRingSize is how many sampled trace records the ring retains.
	traceRingSize = 256
	// spillFaultThreshold is how many consecutive spill errors disable
	// SieveStore-D access logging for the rest of the epoch: the spill
	// device is presumed sick, and a staler epoch selection is the only
	// cost.
	spillFaultThreshold = 3
	// spillProbeEvery is how often one access goes through the disabled
	// spill logger to probe for recovery.
	spillProbeEvery = time.Second
)

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
	s.rotCond = sync.NewCond(&s.rotMu)
	s.deadline.Store(math.MaxInt64)
	if o.TraceSample > 0 {
		s.trace = metrics.NewTraceRing(traceRingSize, o.TraceSample)
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
		acct, err := tenant.New(tenant.Config{
			CapacityBlocks:       o.CacheBytes / block.Size,
			BlockBytes:           block.Size,
			Quotas:               o.TenantQuotas,
			EnduranceBytesPerDay: o.EnduranceBytesPerDay,
			RepartitionEvery:     o.TenantRepartitionEvery,
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
		if o.Shards > 1 {
			cfg.IMCTSize = (cfg.IMCTSize + o.Shards - 1) / o.Shards
		}
		for _, sh := range s.shards {
			sc, err := sieve.NewC(cfg)
			if err != nil {
				return nil, err
			}
			sh.sieveC = sc
		}
	case VariantD:
		dir := o.SpillDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "sievestore-spill-*")
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			s.ownSpill = dir
		}
		// Keep the partition count a multiple of the shard count: both
		// reduce the same page hash, so every partition then holds keys of
		// exactly one shard (partition p feeds shard p mod Shards) and
		// concurrent shards never contend on a partition lock.
		partitions := sieved.DefaultPartitions
		if o.Shards > partitions {
			partitions = o.Shards
		}
		var logger *sieved.Logger
		if o.SpillDir != "" {
			// A caller-supplied spill dir is durable state: resume (and
			// salvage) the epoch in progress instead of truncating it — a
			// daemon restart must not discard the day's access counts.
			logger, err = sieved.OpenLogger(dir, partitions)
		} else {
			logger, err = sieved.NewLogger(dir, partitions)
		}
		if err != nil {
			if s.ownSpill != "" {
				os.RemoveAll(s.ownSpill)
			}
			return nil, err
		}
		s.logger = logger
		s.updateDeadlineLocked()
	default:
		return nil, fmt.Errorf("core: unknown variant %d", o.Variant)
	}
	return s, nil
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
		st.ThrottleDenials = t.ThrottleDenials
		st.TenantClips = t.SelectionClips
		st.TenantRepartitions = t.Repartitions
	}
	st.BackendReads += s.fetchReads.Load()
	st.BackendBytesRead += s.fetchBytes.Load()
	st.Epochs = s.epochs.Load()
	st.RotateFailures = s.rotateFailures.Load()
	st.ResetFailures = s.resetFailures.Load()
	st.SpillDisables = s.spillDisables.Load()
	st.GroupCommits = s.groupCommits.Load()
	st.CoalescedFlushes = s.coalescedFlushes.Load()
	st.ReadLatency = latencyFromHistogram(s.histRead.Snapshot(), s.errRead.Load())
	st.WriteLatency = latencyFromHistogram(s.histWrite.Snapshot(), s.errWrite.Load())
	return st
}

// latencyFromHistogram flattens a histogram snapshot into the wire-stable
// OpLatencySnapshot shape, folding in the separately tracked error count.
func latencyFromHistogram(h metrics.HistogramSnapshot, errs int64) metrics.OpLatencySnapshot {
	return metrics.OpLatencySnapshot{
		Ops:        h.Count,
		Errors:     errs,
		TotalNanos: h.Sum,
		MaxNanos:   h.Max,
	}
}

// Close releases the store's resources. In write-back mode the dirty
// blocks are written back first (staged, without holding any shard lock
// across the backend I/O); write-through stores have nothing to flush.
func (s *Store) Close() error {
	s.rotMu.Lock()
	// Wait out an epoch transition in progress: it expects the logger and
	// spill directory to outlive it.
	for s.rotating {
		s.rotCond.Wait()
	}
	if s.closed.Load() {
		s.rotMu.Unlock()
		return nil
	}
	// Mark closed first so no new I/O can dirty blocks behind the drains.
	// An operation already past its entry check either sees closed under
	// its shard's lock (and writes through instead of dirtying) or holds
	// the shard lock before our drain does — in which case the drain
	// below sees its dirty blocks.
	s.closed.Store(true)
	s.rotMu.Unlock()

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
// sampling, the closed gate, and — only when latency is tracked or this
// operation drew a trace — two monotonic clock reads around path.
func (s *Store) do(op string, h *metrics.Histogram, errs *atomic.Int64,
	path func(server, volume int, p []byte, off uint64, tr *metrics.OpTrace) error,
	server, volume int, p []byte, off uint64) error {
	if err := checkIO(server, volume, off, len(p)); err != nil {
		return err
	}
	tr := s.beginTrace(op, server, volume, p, off)
	timed := s.opts.TrackLatency || tr != nil
	var start time.Duration
	if timed {
		start = time.Since(s.monoBase)
	}
	err := ErrClosed
	if !s.closed.Load() {
		err = path(server, volume, p, off, tr)
	}
	if timed {
		d := time.Since(s.monoBase) - start
		if s.opts.TrackLatency {
			h.Observe(d)
			if err != nil {
				errs.Add(1)
			}
		}
		s.endTrace(tr, d, err)
	}
	return err
}

// ReadAt reads len(p) bytes from the volume at off: cached blocks from the
// cache, the rest from the backend, straight into p with no lock held.
// Missing blocks are offered to the sieve first. Only the few it admits are
// reserved in their shard's in-flight table (concurrent misses of one join
// rather than refetch; an intervening write or Invalidate vetoes the install)
// and installed after the fetch; a rejected block leaves no trace in the
// store beyond its sieve count and the backend counters.
func (s *Store) ReadAt(server, volume int, p []byte, off uint64) error {
	return s.do("read", &s.histRead, &s.errRead, s.readCached, server, volume, p, off)
}

// miss is one block a read did not find and has a flight for: admitted
// (this call fetches and installs it; sh is its shard) or joined (another
// call's flight will deliver it). idx is its position in the request.
type miss struct {
	idx int
	f   *flight
	sh  *shard
}

func (s *Store) readCached(server, volume int, p []byte, off uint64, tr *metrics.OpTrace) error {
	s.maybeRotate()
	if s.closed.Load() {
		return ErrClosed
	}
	s.tenantTick()
	nBlocks := len(p) / block.Size
	first := off / block.Size
	s.logAccess(server, volume, first, nBlocks)
	s.tenantAccess(server, volume, int64(nBlocks), false)
	key0 := block.MakeKey(server, volume, first)

	// Classify: one critical section per shard, shards ascending, each
	// shard's blocks in request order — so a shard's recency order and its
	// sieve's counts move exactly as a block-by-block walk would move them.
	// A page run is one slot-table and one in-flight probe, a hit one relink
	// and one copy. A miss with no flight to join goes on at, to be fetched,
	// and is offered to the sieve with the shard lock released (shard.admit).
	var runBuf [runsInline]uint64
	var atBuf [missInline]uint64
	var admittedBuf, joinedBuf [8]miss
	runs := s.pageRuns(runBuf[:0], key0, nBlocks)
	at, admitted, joined := atBuf[:0], admittedBuf[:0], joinedBuf[:0]
	var now time.Time // the sieve's clock, read once a block has actually missed
	for lo := 0; lo < len(runs); {
		sh, hi := s.shardRuns(runs, lo)
		sh.mu.Lock()
		hits, missed, seq := 0, len(at), sh.admitSeq.Load()
		for _, w := range runs[lo:hi] {
			i, end, pk, b := runPage(key0, w)
			sh.stats.Reads += int64(end - i)
			pg, pf := sh.tab.Page(pk), sh.inflight[pk]
			for ; i < end; i, b = i+1, b+1 {
				if slot := pg[b] - 1; pg[b] != 0 {
					sh.tab.Hit(slot)
					copy(p[i*block.Size:(i+1)*block.Size], sh.frame(slot))
					hits++
				} else if f := pf[b]; f != nil {
					joined = append(joined, miss{idx: i, f: sh.joinLocked(f)})
				} else {
					at = append(at, uint64(i))
				}
			}
		}
		sh.stats.ReadHits += int64(hits)
		sh.mu.Unlock()
		if sh.sieveC != nil && len(at) > missed {
			if now.IsZero() {
				now = s.now()
			}
			at, admitted, joined = sh.admit(key0, at, missed, seq, now, admitted, joined)
		}
		lo = hi
	}
	s.tenantHits(server, volume, int64(nBlocks-len(at)-len(joined)))
	if tr != nil {
		tr.Misses = len(at)
		tr.Coalesced = len(joined)
		tr.Hits = nBlocks - len(at) - len(joined)
	}
	if len(at) > 0 {
		if err := s.readMisses(key0, p, at, admitted, tr); err != nil {
			return err
		}
	}
	// Join coalesced misses last: every flight this call owns is already
	// completed, so blocking here cannot deadlock. A joined flight that
	// failed is re-fetched as a plain rejected miss.
	for _, m := range joined {
		if <-m.f.done; m.f.err == nil {
			copy(p[m.idx*block.Size:(m.idx+1)*block.Size], m.f.data)
		} else if s.closed.Load() {
			return ErrClosed
		} else if err := s.readMisses(key0, p, []uint64{uint64(m.idx)}, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// readMisses fetches the blocks of a read that missed — at holds their
// positions in the request — into p, then installs those the sieve admitted
// (in shard order, as classification left them) and completes their flights.
func (s *Store) readMisses(key0 block.Key, p []byte, at []uint64, admitted []miss, tr *metrics.OpTrace) error {
	// Fetch from the ensemble in contiguous runs — lock-free, so concurrent
	// callers overlap their backend latency. Runs follow block adjacency,
	// not shard boundaries: backend request geometry is unchanged by
	// sharding.
	if s.shardMask != 0 {
		slices.Sort(at)
	}
	var fetchErr error
	var nReads, nBytes int64
	okBefore := len(p) / block.Size // blocks before this position were fetched
	for lo := 0; lo < len(at); {
		hi := lo + 1
		for hi < len(at) && at[hi] == at[hi-1]+1 {
			hi++
		}
		i, j := int(at[lo]), int(at[hi-1])+1
		buf := p[i*block.Size : j*block.Size]
		if e := s.backend.ReadAt(key0.Server(), key0.Volume(), buf, (key0 + block.Key(i)).Offset()); e != nil {
			fetchErr, okBefore = e, i
			break
		}
		nReads++
		nBytes += int64(len(buf))
		lo = hi
	}

	// The backend counters take no lock. Admitted blocks, if any, are
	// installed shard by shard — those fetched before a failed run too —
	// unless a write or Invalidate of the block (stale) or Close intervened.
	s.fetchReads.Add(nReads)
	s.fetchBytes.Add(nBytes)
	installed := 0
	for lo := 0; lo < len(admitted); {
		sh := admitted[lo].sh
		hi := lo + 1
		for hi < len(admitted) && admitted[hi].sh == sh {
			hi++
		}
		sh.mu.Lock()
		for _, m := range admitted[lo:hi] {
			key := key0 + block.Key(m.idx)
			if m.idx < okBefore {
				data := p[m.idx*block.Size : (m.idx+1)*block.Size]
				if !m.f.stale && !s.closed.Load() && sh.installAdmitted(key, data, false) {
					installed++
				}
				m.f.publishLocked(data)
			} else {
				m.f.err = fetchErr
			}
			sh.finishLocked(key, m.f)
		}
		sh.mu.Unlock()
		lo = hi
	}
	if tr != nil {
		tr.Admitted = installed
	}
	return fetchErr
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

// WriteAt writes p through to the backend, updating cached blocks in place
// and offering missing blocks to the sieve. The backend write happens with
// no lock held. The written key range is reserved in the shards' in-flight
// tables first — in shard order, all-or-nothing within each shard — which
// serializes overlapping writes, so backend order and cache order cannot
// invert, and lets concurrent read misses on these keys coalesce onto the
// written data instead of racing the write with a backend fetch.
func (s *Store) WriteAt(server, volume int, p []byte, off uint64) error {
	return s.do("write", &s.histWrite, &s.errWrite, s.writeCached, server, volume, p, off)
}

func (s *Store) writeCached(server, volume int, p []byte, off uint64, tr *metrics.OpTrace) error {
	s.maybeRotate()
	if s.closed.Load() {
		return ErrClosed
	}
	s.tenantTick()
	now := s.now()
	nBlocks := len(p) / block.Size
	first := off / block.Size
	s.logAccess(server, volume, first, nBlocks)
	s.tenantAccess(server, volume, int64(nBlocks), true)
	key0 := block.MakeKey(server, volume, first)

	// Reserve, shard by shard. The blocks a shard does not hold are offered
	// to the sieve at once, under its lock, not the shard's (the reservation
	// keeps them ours); the fold below installs the ones it admits.
	var runBuf [runsInline]uint64
	var atBuf [missInline]uint64
	var admBuf [block.BlocksPerPage]uint64
	runs := s.pageRuns(runBuf[:0], key0, nBlocks)
	flights := make([]flight, nBlocks) // by block; one allocation per write
	for lo := 0; lo < len(runs); {
		sh, hi := s.shardRuns(runs, lo)
		sh.mu.Lock()
		at, rerr := sh.reserveLocked(key0, runs[lo:hi], flights, atBuf[:0])
		sh.mu.Unlock()
		if rerr != nil {
			// Release the reservations already held in earlier shards.
			s.eachShard(runs[:lo], func(sh *shard, lo, hi int) {
				sh.completeLocked(key0, runs[lo:hi], flights, nil, rerr)
			})
			return rerr
		}
		if len(at) > 0 {
			sh.sieveMu.Lock()
			for _, i := range sh.sieveLocked(admBuf[:0], key0, at, now) {
				flights[i].admit = true
			}
			sh.sieveMu.Unlock()
		}
		lo = hi
	}

	// Write-through: the backend is always authoritative, and is written
	// first, unlocked. Write-back: absorbed marks the blocks the cache takes
	// (dirty); only the others reach the backend, after the fold.
	wb := s.opts.WriteBack
	var werr error
	var nWrites, nBytes int64
	var absorbed []bool
	if wb {
		absorbed = make([]bool, nBlocks)
	} else if werr = s.backend.WriteAt(server, volume, p, off); werr == nil {
		nWrites, nBytes = 1, int64(len(p))
	}
	// Backend counters are charged once, to the first shard visited.
	first0 := s.shards[runs[0]>>runShardShift]
	complete := func(sh *shard, lo, hi int) {
		if sh == first0 {
			sh.stats.BackendWrites += nWrites
			sh.stats.BackendBytesWritten += nBytes
		}
		sh.completeLocked(key0, runs[lo:hi], flights, p, werr)
	}

	// Fold the data into the cache, one critical section per shard, blocks
	// in request order: a resident block takes it in place, an admitted one
	// is installed. A block whose reservation went stale (invalidated since
	// it was taken), or a store closed meanwhile (Close may already have
	// drained this shard), must not park data in the cache: under write-back
	// it writes through. A write-through write is complete with its fold.
	var hits, admitted int
	s.eachShard(runs, func(sh *shard, lo, hi int) {
		for _, w := range runs[lo:hi] {
			i, end, pk, b := runPage(key0, w)
			pg := sh.tab.Page(pk)
			for ; i < end && werr == nil; i, b = i+1, b+1 {
				if flights[i].stale || s.closed.Load() {
					continue
				}
				data := p[i*block.Size : (i+1)*block.Size]
				if slot := pg[b] - 1; pg[b] != 0 {
					sh.tab.Hit(slot)
					copy(sh.frame(slot), data)
					if wb {
						sh.setDirtyLocked(slot)
					}
					sh.stats.WriteHits++
					hits++
				} else if flights[i].admit && sh.installAdmitted(pk+block.Key(b), data, wb) {
					admitted++
					pg = sh.tab.Page(pk) // its eviction may have taken a page-mate
				} else {
					continue
				}
				if wb {
					absorbed[i] = true
				}
			}
		}
		if !wb {
			complete(sh, lo, hi)
		}
	})
	s.tenantHits(server, volume, int64(hits))
	if tr != nil {
		tr.Hits = hits
		tr.Misses = nBlocks - hits
		tr.Admitted = admitted
	}
	if !wb {
		return werr
	}

	for i := 0; i < nBlocks && werr == nil; {
		if absorbed[i] {
			i++
			continue
		}
		j := i + 1
		for j < nBlocks && !absorbed[j] {
			j++
		}
		buf := p[i*block.Size : j*block.Size]
		if werr = s.backend.WriteAt(server, volume, buf, off+uint64(i)*block.Size); werr == nil {
			nWrites++
			nBytes += int64(len(buf))
		}
		i = j
	}
	s.eachShard(runs, complete)
	return werr
}

// Flush writes every currently-dirty block back to the ensemble
// (write-back mode), shard by shard in ascending order. The backend I/O is
// staged: no shard lock is held while streaming, so concurrent reads and
// writes proceed. Blocks whose write-back fails stay dirty and resident
// and are counted in Stats.FlushErrors; every shard is still visited and
// the first error is returned.
//
// Concurrent flushes group-commit. A Flush that finds no sweep running
// starts one. A Flush that arrives while a sweep runs cannot ride on it —
// the sweep may already have passed the blocks this caller dirtied — so it
// waits for that sweep to end, and every Flush arriving meanwhile shares
// the one follow-up sweep, which starts after all of their calls.
func (s *Store) Flush() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.flushMu.Lock()
	switch {
	case s.flushing == nil:
		b := &flushBatch{done: make(chan struct{})}
		s.flushing = b
		s.flushMu.Unlock()
		return s.sweep(b)
	case s.flushNext != nil:
		b := s.flushNext
		s.flushMu.Unlock()
		s.coalescedFlushes.Add(1)
		<-b.done
		return b.err
	default:
		b, running := &flushBatch{done: make(chan struct{})}, s.flushing
		s.flushNext = b
		s.flushMu.Unlock()
		<-running.done // which hands b the flushing role
		return s.sweep(b)
	}
}

// sweep runs batch b's write-back sweep, then hands the flushing role to
// the batch queued behind it, whose starter is waiting on b.done.
func (s *Store) sweep(b *flushBatch) error {
	s.groupCommits.Add(1)
	b.err = s.flushAll()
	s.flushMu.Lock()
	s.flushing, s.flushNext = s.flushNext, nil
	s.flushMu.Unlock()
	close(b.done)
	return b.err
}

// flushAll is one staged write-back sweep over every shard.
func (s *Store) flushAll() error {
	var err error
	for _, sh := range s.shards {
		sh.mu.Lock()
		ferr := sh.flushStagedLocked(nil)
		sh.mu.Unlock()
		if err == nil {
			err = ferr
		}
	}
	return err
}

// Bounded parallelism and run sizing for staged transitions (epoch batch
// fetches, staged flushes): backend requests cover contiguous multi-block
// runs of at most transitionMaxRun blocks, issued by at most
// transitionWorkers goroutines.
const (
	transitionWorkers = 8
	transitionMaxRun  = 64 // blocks per backend request (32 KiB)
)

// keyRun is a half-open index range [lo, hi) of consecutive blocks.
type keyRun struct{ lo, hi int }

// contiguousRuns splits sorted keys into runs of consecutive blocks on the
// same server and volume, each at most transitionMaxRun long. include, if
// non-nil, masks individual indices out of the runs.
func contiguousRuns(keys []block.Key, include func(int) bool) []keyRun {
	var runs []keyRun
	for i := 0; i < len(keys); {
		if include != nil && !include(i) {
			i++
			continue
		}
		j := i + 1
		for j < len(keys) && j-i < transitionMaxRun &&
			keys[j] == keys[j-1]+1 &&
			keys[j].Server() == keys[j-1].Server() &&
			keys[j].Volume() == keys[j-1].Volume() &&
			(include == nil || include(j)) {
			j++
		}
		runs = append(runs, keyRun{lo: i, hi: j})
		i = j
	}
	return runs
}

// forEach invokes do(0) … do(n-1) with bounded parallelism (inline, with
// no goroutine, when n is 1). After the first error no new calls are
// started; the first error is returned. do must confine its writes to
// state indexed by its argument — forEach provides the happens-before
// edge back to the caller.
func forEach(n int, do func(i int) error) error {
	workers := min(transitionWorkers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := do(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next  atomic.Int64
		first atomic.Pointer[error]
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := do(i); err != nil {
					first.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	if wg.Wait(); first.Load() != nil {
		return *first.Load()
	}
	return nil
}

// fetchBatch reads the given blocks from the ensemble in contiguous
// multi-block runs with bounded parallelism. It is called WITHOUT any
// shard lock and touches no store state besides the backend; the returned
// frames are freshly allocated, one per key. Partial work on error is
// reflected in the request/byte counts so the caller can account it.
func (s *Store) fetchBatch(keys []block.Key) (map[block.Key][]byte, int64, int64, error) {
	if len(keys) == 0 {
		return nil, 0, 0, nil
	}
	sorted := append([]block.Key(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	runs := contiguousRuns(sorted, nil)
	bufs := make([][]byte, len(sorted))
	ran := make([]bool, len(runs))
	err := forEach(len(runs), func(ri int) error {
		r := runs[ri]
		n := r.hi - r.lo
		buf := make([]byte, n*block.Size)
		k0 := sorted[r.lo]
		if e := s.backend.ReadAt(k0.Server(), k0.Volume(), buf, k0.Offset()); e != nil {
			return fmt.Errorf("core: epoch move for %v: %w", k0, e)
		}
		for i := 0; i < n; i++ {
			bufs[r.lo+i] = buf[i*block.Size : (i+1)*block.Size : (i+1)*block.Size]
		}
		ran[ri] = true
		return nil
	})
	var nReads, nBytes int64
	for ri, r := range runs {
		if ran[ri] {
			nReads++
			nBytes += int64(r.hi-r.lo) * block.Size
		}
	}
	if err != nil {
		return nil, nReads, nBytes, err
	}
	fetched := make(map[block.Key][]byte, len(sorted))
	for i, k := range sorted {
		fetched[k] = bufs[i]
	}
	return fetched, nReads, nBytes, nil
}

// now returns the injected current time.
func (s *Store) now() time.Time { return s.opts.Now() }

// beginTrace starts a sampled op-lifecycle record, or returns nil when
// this operation is not sampled (the common case: one atomic add).
func (s *Store) beginTrace(op string, server, volume int, p []byte, off uint64) *metrics.OpTrace {
	if s.trace == nil || !s.trace.Sample() {
		return nil
	}
	return &metrics.OpTrace{
		StartNS: s.now().UnixNano(),
		Op:      op,
		Server:  server,
		Volume:  volume,
		Offset:  off,
		Blocks:  len(p) / block.Size,
		Shard:   s.shardIndex(block.MakeKey(server, volume, off/block.Size)),
	}
}

// endTrace finishes and records a sampled trace (no-op for nil).
func (s *Store) endTrace(tr *metrics.OpTrace, d time.Duration, err error) {
	if tr == nil {
		return
	}
	tr.LatencyNS = d.Nanoseconds()
	if err != nil {
		tr.Err = err.Error()
	}
	s.trace.Record(*tr)
}

// Traces returns the sampled operation lifecycle records, newest first
// (nil when Options.TraceSample is 0).
func (s *Store) Traces() []metrics.OpTrace {
	if s.trace == nil {
		return nil
	}
	return s.trace.Dump()
}

// LatencyHistograms returns mergeable log-bucketed distributions of
// whole-call ReadAt and WriteAt service times. Empty unless
// Options.TrackLatency is set.
func (s *Store) LatencyHistograms() (read, write metrics.HistogramSnapshot) {
	return s.histRead.Snapshot(), s.histWrite.Snapshot()
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

// testLogHook, when non-nil, runs at the top of logAccess — tests use it
// to stall the access-logging path and prove the hit path no longer
// serializes behind it. Set and cleared only while no store operations are
// running.
var testLogHook func()

// testSpillFault, when non-nil, injects an error into logAccess before the
// logger is touched — tests use it to drive the spill-disable path without
// breaking the logger's real files. Set and cleared only while no store
// operations are running.
var testSpillFault func() error

// logAccess records the access for the offline sieve (VariantD only). It
// runs before any shard lock is taken: the logger's buffered file I/O
// (including its 64 KiB buffer flushes) must never stall concurrent hits.
//
// Logging failures must not fail the I/O path; the worst case is a slightly
// stale epoch selection. They are surfaced via Close — and after
// spillFaultThreshold consecutive failures, access logging is disabled for
// the rest of the epoch (the spill device is presumed sick). One probe per
// spillProbeEvery retries; a success, or the epoch rotation's log reset,
// re-enables logging.
func (s *Store) logAccess(server, volume int, first uint64, nBlocks int) {
	if s.logger == nil {
		return
	}
	if h := testLogHook; h != nil {
		h()
	}
	if s.spillDisabled.Load() {
		now, last := s.now().UnixNano(), s.lastSpillProbe.Load()
		if now-last < int64(spillProbeEvery) || !s.lastSpillProbe.CompareAndSwap(last, now) {
			return
		}
	}
	var err error
	if f := testSpillFault; f != nil {
		err = f()
	}
	if err == nil {
		err = s.logger.LogRun(block.MakeKey(server, volume, first), nBlocks)
	}
	s.noteSpill(err)
}

// noteSpill tracks consecutive access-log failures and flips the
// spill-disable switch across the threshold (or back, on a successful
// probe).
func (s *Store) noteSpill(err error) {
	if err == nil {
		s.spillFaultStreak.Store(0)
		s.spillDisabled.Store(false)
		return
	}
	streak := s.spillFaultStreak.Add(1)
	if streak >= spillFaultThreshold && s.spillDisabled.CompareAndSwap(false, true) {
		s.spillDisables.Add(1)
		s.lastSpillProbe.Store(s.now().UnixNano())
	}
}

// updateDeadlineLocked recomputes the next epoch boundary after curEpoch
// advances or the schedule restarts. Caller must hold rotMu.
func (s *Store) updateDeadlineLocked() {
	s.deadline.Store(s.start.Add(time.Duration(s.curEpoch+1) * s.opts.Epoch).UnixNano())
}

// maybeRotate rotates VariantD epochs that have elapsed. The hot path
// pays one atomic deadline load; past the deadline, the rotation runs
// inline in the triggering caller with no shard lock held across its
// backend I/O. Callers arriving meanwhile see rotating and proceed
// without blocking (the in-progress rotation covers the due boundary).
func (s *Store) maybeRotate() {
	if s.logger == nil {
		return
	}
	if s.now().UnixNano() < s.deadline.Load() {
		return
	}
	s.rotMu.Lock()
	if s.rotating || s.closed.Load() {
		s.rotMu.Unlock()
		return
	}
	for {
		epoch := int64(s.now().Sub(s.start) / s.opts.Epoch)
		if s.curEpoch >= epoch {
			break
		}
		// Advance the schedule before the staged work so concurrent ops'
		// deadline checks skip this boundary. On an abort the next
		// boundary (or a manual RotateEpoch) retries with the counts
		// still accumulating — exactly the unsharded retry schedule.
		s.curEpoch++
		s.updateDeadlineLocked()
		s.rotating = true
		s.rotMu.Unlock()
		committed, err := s.rotateStaged()
		s.rotMu.Lock()
		s.rotating = false
		s.rotCond.Broadcast()
		if err != nil {
			// An aborted transition touched nothing: the spill logs and
			// the previous epoch's cache set are intact. A post-commit
			// reset failure is counted separately (ResetFailures, inside
			// rotateStaged) — the rotation itself took effect.
			if !committed {
				s.rotateFailures.Add(1)
			}
			break
		}
		if s.closed.Load() {
			break
		}
	}
	s.rotMu.Unlock()
}

// RotateEpoch forces an immediate SieveStore-D epoch boundary: the current
// logs are reduced, qualifying blocks are batch-allocated (fetching their
// data from the ensemble), and the logs reset. The epoch schedule restarts
// from here — the next automatic rotation happens one full Epoch after the
// epoch containing the current time, not at the originally scheduled
// boundary (otherwise a near-boundary manual rotation would immediately be
// followed by an automatic one over empty logs, wiping the cache). It is a
// no-op for VariantC.
func (s *Store) RotateEpoch() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.logger == nil {
		return nil
	}
	s.rotMu.Lock()
	// Wait out a transition already in progress, then run our own: the
	// caller asked for a boundary *now*, after whatever was already due.
	for s.rotating {
		s.rotCond.Wait()
	}
	if s.closed.Load() {
		s.rotMu.Unlock()
		return ErrClosed
	}
	s.rotating = true
	s.rotMu.Unlock()
	committed, err := s.rotateStaged()
	s.rotMu.Lock()
	s.rotating = false
	s.rotCond.Broadcast()
	if !committed {
		s.rotateFailures.Add(1)
		s.rotMu.Unlock()
		return err
	}
	// Restart the schedule: the next automatic rotation is one full Epoch
	// from now. (start is only used for epoch scheduling under VariantD.)
	// The boundary took effect even if the post-commit log reset failed —
	// that error is returned but counted in ResetFailures, not as an abort.
	s.start = s.now()
	s.curEpoch = 0
	s.updateDeadlineLocked()
	s.rotMu.Unlock()
	return err
}

// rotateStaged performs one SieveStore-D epoch transition. Called with NO
// locks held (the caller owns the rotating flag); shard locks are taken
// per stage, always in ascending shard order, and never held across
// backend I/O — concurrent reads and writes keep being served throughout.
// The transition is failure-atomic: any error before the final swap leaves
// both the spill logs and the cache contents exactly as they were (Select
// does not reset the logs; Reset runs only after the swap commits).
// committed reports whether the swap took effect: a reset error after the
// commit is returned with committed true so callers can count it
// separately from an abort.
//
// With multiple shards the swap itself commits shard by shard: a reader
// can briefly observe shard i serving the new epoch's set while shard j
// still serves the old one. Each shard's swap is atomic under its lock,
// and the paper's semantics (a single global swap) are exact at Shards=1.
func (s *Store) rotateStaged() (committed bool, err error) {
	// Stage 0: arm every shard — from here until its commit (or disarm on
	// abort), writes and invalidations record skipped keys in rotSkip so
	// the swap cannot install a fetched copy that their data supersedes.
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.rotSkip = make(map[block.Key]uint8)
		sh.mu.Unlock()
	}
	disarm := func() {
		for _, sh := range s.shards {
			sh.mu.Lock()
			sh.rotSkip = nil
			sh.mu.Unlock()
		}
	}

	// Quotas repartition at every epoch boundary: the ending epoch's
	// per-tenant hits are the freshest demand signal, and the selection
	// clip below then runs against the new split.
	if s.acct != nil {
		s.acct.Repartition(s.now())
	}

	// Stage 1: reduce the logs and select the new set — no locks held.
	selected, err := s.logger.Select(s.opts.DThreshold)
	if err != nil {
		disarm()
		return false, err
	}
	// Tenant quotas clip the hottest-first selection before the capacity
	// cut: each tenant keeps at most its quota blocks, so a churning
	// tenant's one-hit wonders cannot consume capacity slots a stable
	// tenant's (cooler but reused) blocks would fill.
	if s.acct != nil {
		selected, _ = s.acct.ClipSelection(selected)
	}
	if total := int(s.opts.CacheBytes / block.Size); len(selected) > total {
		selected = selected[:total] // Select orders hottest-first
	}
	// Split the selection across shards, preserving hottest-first order
	// within each; a shard takes at most its own capacity. A skewed
	// key→shard distribution can overflow one shard while others sit
	// half-empty — those hot blocks are lost for the epoch, so count them
	// in SelectOverflow instead of dropping them silently.
	perShard := make([][]block.Key, len(s.shards))
	inNew := make(map[block.Key]bool, len(selected))
	var splitOverflow int64
	for _, k := range selected {
		si := s.shardIndex(k)
		if len(perShard[si]) < s.shards[si].tab.Capacity() {
			perShard[si] = append(perShard[si], k)
			inNew[k] = true
		} else {
			splitOverflow++
		}
	}
	if splitOverflow > 0 {
		sh0 := s.shards[0]
		sh0.mu.Lock()
		sh0.stats.SelectOverflow += splitOverflow
		sh0.mu.Unlock()
	}

	// Stage 2: fetch the selected blocks that are not already resident —
	// off-lock, in contiguous multi-block runs with bounded parallelism.
	// (Residency only shrinks while rotating: VariantD admits solely at
	// epoch boundaries, so "need" cannot grow stale the dangerous way.)
	// A hard-throttled tenant's endurance budget caps how many *new*
	// installs this epoch may fetch on its behalf: blocks past the
	// allowance stay unselected (counted as tenant clips) — retained
	// residents cost no SSD writes and are unaffected.
	var allow map[tenant.ID]int64
	if s.acct.EnduranceEnabled() {
		allow = make(map[tenant.ID]int64)
	}
	rotNow := s.now()
	var need []block.Key
	for si, sh := range s.shards {
		sh.mu.Lock()
		for _, k := range perShard[si] {
			if sh.tab.Contains(k) {
				continue
			}
			if allow != nil {
				id := tenant.IDOf(k)
				left, seen := allow[id]
				if !seen {
					left = s.acct.AllowanceBlocks(id, rotNow)
				}
				if left <= 0 {
					allow[id] = 0
					s.acct.NoteClip(id, 1)
					continue
				}
				allow[id] = left - 1
			}
			need = append(need, k)
		}
		sh.mu.Unlock()
	}
	fetched, nReads, nBytes, err := s.fetchBatch(need)
	s.fetchReads.Add(nReads)
	s.fetchBytes.Add(nBytes)
	if err != nil {
		disarm()
		return false, err
	}
	if s.closed.Load() {
		disarm()
		return false, ErrClosed
	}

	// Stage 3: write back dirty blocks the swap would evict — staged like
	// Flush, shard by shard ascending, and aborting the rotation on
	// failure (evicting them unflushed would lose data).
	for _, sh := range s.shards {
		sh.mu.Lock()
		ferr := sh.flushStagedLocked(func(k block.Key) bool { return !inNew[k] })
		sh.mu.Unlock()
		if ferr != nil {
			disarm()
			return false, ferr
		}
	}
	if s.closed.Load() {
		disarm()
		return false, ErrClosed
	}

	// Stage 4: commit — each shard swaps under its own lock, no backend
	// I/O, ascending order.
	for si, sh := range s.shards {
		sh.mu.Lock()
		sh.commitEpochLocked(perShard[si], fetched)
		sh.mu.Unlock()
	}
	s.epochs.Add(1)

	// Stage 5: reset the logs — no locks held again (the logger is safe
	// for concurrent use, and accesses logged since Select carry into the
	// new epoch). The swap is already committed; a reset failure is
	// surfaced but no longer rolls anything back — the rotation itself
	// took effect (counted in Epochs, not RotateFailures), and tuples in
	// partitions the reset could not clear double-count into the next
	// epoch's selection.
	if rerr := s.logger.Reset(); rerr != nil {
		s.resetFailures.Add(1)
		return true, fmt.Errorf("core: epoch log reset: %w", rerr)
	}
	// Fresh logs on a working spill device: if logging had been disabled
	// for the old epoch, resume it for the new one.
	s.spillFaultStreak.Store(0)
	s.spillDisabled.Store(false)
	return true, nil
}

// Contains reports whether a block is currently cached (test/debug aid).
func (s *Store) Contains(server, volume int, off uint64) bool {
	key := block.MakeKey(server, volume, off/block.Size)
	sh := s.shards[s.shardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tab.Contains(key)
}

// Invalidate drops any cached blocks overlapping [off, off+length) of the
// volume, returning how many were resident. Use it when the backing
// ensemble is modified outside the Store (the write-through design makes
// this unnecessary for I/O that goes through the Store itself).
//
// In-flight operations on the range are marked stale and detached — a fetch
// or write in the air would re-install data from before the drop — and the
// keys are recorded in rotSkip, so a staging epoch commit cannot resurrect
// its older batch-fetched copy. A dirty frame holds the only current copy:
// it is written back before it is dropped.
func (s *Store) Invalidate(server, volume int, off uint64, length int) (dropped int, err error) {
	if err := checkIO(server, volume, off, length); err != nil {
		return 0, err
	}
	if s.closed.Load() {
		return 0, ErrClosed
	}
	key0 := block.MakeKey(server, volume, off/block.Size)
	var buf [runsInline]uint64
	runs := s.pageRuns(buf[:0], key0, length/block.Size)
	s.eachShard(runs, func(sh *shard, lo, hi int) {
		for r := lo; r < hi && err == nil; r++ {
			i, end, pk, b := runPage(key0, runs[r])
			sh.dropFlightsLocked(pk, b, end-i)
			pg := sh.tab.Page(pk)
			for ; i < end && err == nil; i, b = i+1, b+1 {
				slot := pg[b] - 1
				if pg[b] == 0 {
					continue
				}
				if sh.dirty[slot] {
					if err = sh.flushSlot(slot); err != nil {
						break
					}
				}
				sh.removeLocked(slot)
				dropped++
			}
		}
	})
	return dropped, err
}
