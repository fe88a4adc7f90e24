package appliance

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/sieve"
	"repro/internal/sieved"
	"repro/internal/tenant"
)

// Observability collects every counter the system computes — per-shard
// core stats, sieve/IMCT state, SieveStore-D spill-log partition stats,
// resilience breaker/retry stats, and appliance server stats — into a
// metrics.Registry under stable dotted names, and serves them over HTTP:
//
//	/metrics    Prometheus text exposition (counters, gauges, latency
//	            histograms with quantile-derivable le buckets)
//	/statusz    the same data as JSON, histograms rendered as
//	            count/sum/max plus p50/p95/p99/p999
//	/debug/ops  the store's sampled per-op lifecycle records, newest first
//
// All producer snapshots are refreshed once per scrape (Registry
// OnCollect), so a scrape costs one cross-shard stats merge regardless of
// how many metrics read from it.
type Observability struct {
	Registry *metrics.Registry

	store *core.Store
	start time.Time
	now   func() time.Time

	mu      sync.RWMutex
	stats   core.Stats
	sieve   sieve.CStats
	spill   sieved.LoggerStats
	tenants []tenant.Snapshot

	// Tenants appear dynamically as I/O arrives, so their per-tenant
	// series are registered lazily from refresh (the registry has no
	// labels — the identity lives in the metric name).
	tenantSeen map[tenant.ID]bool
}

// NewObservability builds a registry over st's counters. Attach more
// producers with AttachServer and AttachResilience, then serve Handler.
func NewObservability(st *core.Store) *Observability {
	o := &Observability{
		Registry:   metrics.NewRegistry(),
		store:      st,
		start:      time.Now(),
		now:        time.Now,
		tenantSeen: make(map[tenant.ID]bool),
	}
	r := o.Registry
	r.OnCollect(o.refresh)
	r.Uptime("sievestore.uptime_seconds", o.start, nil)
	r.Gauge("sievestore.core.shards", func() float64 { return float64(st.Shards()) })

	c := func(name string, f func(core.Stats) int64) {
		r.Counter("sievestore.core."+name, func() int64 { return f(o.coreStats()) })
	}
	g := func(name string, f func(core.Stats) float64) {
		r.Gauge("sievestore.core."+name, func() float64 { return f(o.coreStats()) })
	}
	c("reads", func(s core.Stats) int64 { return s.Reads })
	c("writes", func(s core.Stats) int64 { return s.Writes })
	c("read_hits", func(s core.Stats) int64 { return s.ReadHits })
	c("write_hits", func(s core.Stats) int64 { return s.WriteHits })
	c("alloc_writes", func(s core.Stats) int64 { return s.AllocWrites })
	c("evictions", func(s core.Stats) int64 { return s.Evictions })
	c("epoch_moves", func(s core.Stats) int64 { return s.EpochMoves })
	c("epochs", func(s core.Stats) int64 { return s.Epochs })
	c("backend_reads", func(s core.Stats) int64 { return s.BackendReads })
	c("backend_writes", func(s core.Stats) int64 { return s.BackendWrites })
	c("flush_writes", func(s core.Stats) int64 { return s.FlushWrites })
	c("coalesced_reads", func(s core.Stats) int64 { return s.CoalescedReads })
	c("rotate_failures", func(s core.Stats) int64 { return s.RotateFailures })
	c("reset_failures", func(s core.Stats) int64 { return s.ResetFailures })
	c("flush_errors", func(s core.Stats) int64 { return s.FlushErrors })
	c("spill_disables", func(s core.Stats) int64 { return s.SpillDisables })
	c("select_overflow", func(s core.Stats) int64 { return s.SelectOverflow })
	c("group_commits", func(s core.Stats) int64 { return s.GroupCommits })
	c("coalesced_flushes", func(s core.Stats) int64 { return s.CoalescedFlushes })
	c("backend_bytes_read", func(s core.Stats) int64 { return s.BackendBytesRead })
	c("backend_bytes_written", func(s core.Stats) int64 { return s.BackendBytesWritten })
	c("cache_bytes_served", func(s core.Stats) int64 { return s.ReadHits * block.Size })
	c("read_ops", func(s core.Stats) int64 { return s.ReadLatency.Ops })
	c("read_errors", func(s core.Stats) int64 { return s.ReadLatency.Errors })
	c("write_ops", func(s core.Stats) int64 { return s.WriteLatency.Ops })
	c("write_errors", func(s core.Stats) int64 { return s.WriteLatency.Errors })
	g("cached_blocks", func(s core.Stats) float64 { return float64(s.CachedBlocks) })
	g("capacity_blocks", func(s core.Stats) float64 { return float64(s.CapacityBlocks) })
	g("dirty_blocks", func(s core.Stats) float64 { return float64(s.DirtyBlocks) })
	g("hit_ratio", func(s core.Stats) float64 { return s.HitRatio() })

	// The active eviction policy, info-style: one series per policy a
	// store runs (cache.NewPolicy), 1 on the active one, and the eviction counter attributed to
	// it (the registry has no labels, so the policy name lives in the
	// metric name — sievestore_core_policy_evictions_sieve etc.).
	active := st.Policy()
	for _, flag := range []string{"lru", "sieve"} {
		isActive := strings.EqualFold(flag, active)
		r.Gauge("sievestore.core.policy."+flag, func() float64 {
			if isActive {
				return 1
			}
			return 0
		})
		r.Counter("sievestore.core.policy_evictions."+flag, func() int64 {
			if !isActive {
				return 0
			}
			return o.coreStats().Evictions
		})
	}

	r.Histogram("sievestore.core.read_latency", func() metrics.HistogramSnapshot {
		rd, _ := st.LatencyHistograms()
		return rd
	})
	r.Histogram("sievestore.core.write_latency", func() metrics.HistogramSnapshot {
		_, wr := st.LatencyHistograms()
		return wr
	})

	sc := func(name string, f func(sieve.CStats) int64) {
		r.Counter("sievestore.sieve."+name, func() int64 { return f(o.sieveStats()) })
	}
	sc("misses", func(s sieve.CStats) int64 { return s.Misses })
	sc("promotions", func(s sieve.CStats) int64 { return s.Promotions })
	sc("allocations", func(s sieve.CStats) int64 { return s.Allocations })
	sc("pruned", func(s sieve.CStats) int64 { return s.Pruned })
	r.Gauge("sievestore.sieve.mct_size", func() float64 { return float64(o.sieveStats().MCTSize) })

	if _, ok := st.TenantStats(); ok {
		c("tenants", func(s core.Stats) int64 { return s.Tenants })
		c("quota_denials", func(s core.Stats) int64 { return s.QuotaDenials })
		c("throttle_denials", func(s core.Stats) int64 { return s.ThrottleDenials })
		c("tenant_clips", func(s core.Stats) int64 { return s.TenantClips })
		c("tenant_repartitions", func(s core.Stats) int64 { return s.TenantRepartitions })
	}

	if _, ok := st.SpillStats(); ok {
		sg := func(name string, f func(sieved.LoggerStats) float64) {
			r.Gauge("sievestore.sieved."+name, func() float64 { return f(o.spillStats()) })
		}
		sg("partitions", func(s sieved.LoggerStats) float64 { return float64(s.Partitions) })
		sg("tuples", func(s sieved.LoggerStats) float64 { return float64(s.Tuples) })
		sg("max_partition_tuples", func(s sieved.LoggerStats) float64 { return float64(s.MaxPartitionTuples) })
		sg("pending_epochs", func(s sieved.LoggerStats) float64 { return float64(s.PendingEpochs) })
	}
	return o
}

// refresh snapshots the store once per collection.
func (o *Observability) refresh() {
	st := o.store.Stats()
	sv := o.store.SieveStats()
	sp, _ := o.store.SpillStats()
	tn, _ := o.store.TenantStats()
	o.mu.Lock()
	o.stats, o.sieve, o.spill = st, sv, sp
	o.tenants = tn
	var fresh []tenant.Snapshot
	for _, t := range tn {
		if !o.tenantSeen[t.ID] {
			o.tenantSeen[t.ID] = true
			fresh = append(fresh, t)
		}
	}
	o.mu.Unlock()
	// Register series for newly seen tenants outside o.mu: collection
	// runs its prepare hooks before taking the registry lock, so
	// registering here is safe and the new series appear on this very
	// scrape.
	for _, t := range fresh {
		o.registerTenant(t.ID)
	}
}

// registerTenant adds one tenant's metric series under
// sievestore.tenant.<server>_<volume>.*.
func (o *Observability) registerTenant(id tenant.ID) {
	r := o.Registry
	prefix := fmt.Sprintf("sievestore.tenant.%d_%d.", id.Server(), id.Volume())
	tc := func(name string, f func(tenant.Snapshot) int64) {
		r.Counter(prefix+name, func() int64 { return f(o.tenantSnapFor(id)) })
	}
	tg := func(name string, f func(tenant.Snapshot) float64) {
		r.Gauge(prefix+name, func() float64 { return f(o.tenantSnapFor(id)) })
	}
	tc("reads", func(s tenant.Snapshot) int64 { return s.Reads })
	tc("writes", func(s tenant.Snapshot) int64 { return s.Writes })
	tc("hits", func(s tenant.Snapshot) int64 { return s.Hits })
	tc("alloc_writes", func(s tenant.Snapshot) int64 { return s.AllocWrites })
	tc("quota_denials", func(s tenant.Snapshot) int64 { return s.QuotaDenials })
	tc("throttle_denials", func(s tenant.Snapshot) int64 { return s.ThrottleDenials })
	tc("selection_clips", func(s tenant.Snapshot) int64 { return s.SelectionClips })
	tc("throttles", func(s tenant.Snapshot) int64 { return s.Throttles })
	tg("quota_blocks", func(s tenant.Snapshot) float64 { return float64(s.QuotaBlocks) })
	tg("occupancy_blocks", func(s tenant.Snapshot) float64 { return float64(s.OccupancyBlocks) })
	tg("hit_ratio", func(s tenant.Snapshot) float64 { return s.HitRatio() })
	tg("throttled", func(s tenant.Snapshot) float64 { return float64(s.Throttled) })
	tg("endurance_tokens_bytes", func(s tenant.Snapshot) float64 { return float64(s.EnduranceTokens) })
}

// tenantSnapFor returns the cached snapshot for one tenant (zero value
// if the tenant vanished from the snapshot, which cannot happen today —
// tenants are never forgotten).
func (o *Observability) tenantSnapFor(id tenant.ID) tenant.Snapshot {
	o.mu.RLock()
	defer o.mu.RUnlock()
	for _, t := range o.tenants {
		if t.ID == id {
			return t
		}
	}
	return tenant.Snapshot{}
}

func (o *Observability) coreStats() core.Stats {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.stats
}

func (o *Observability) sieveStats() sieve.CStats {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.sieve
}

func (o *Observability) spillStats() sieved.LoggerStats {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.spill
}

// AttachServer registers the appliance server's connection/request
// counters.
func (o *Observability) AttachServer(srv *Server) {
	r := o.Registry
	r.Gauge("sievestore.server.active_conns", func() float64 { return float64(srv.StatsSnapshot().ActiveConns) })
	r.Counter("sievestore.server.total_conns", func() int64 { return srv.StatsSnapshot().TotalConns })
	r.Counter("sievestore.server.busy_rejects", func() int64 { return srv.StatsSnapshot().BusyRejects })
	r.Counter("sievestore.server.requests", func() int64 { return srv.StatsSnapshot().Requests })
	r.Counter("sievestore.server.error_frames", func() int64 { return srv.StatsSnapshot().ErrorFrames })
	r.Counter("sievestore.server.pipelined_requests", func() int64 { return srv.StatsSnapshot().PipelinedReqs })
	r.Gauge("sievestore.server.pipeline_depth", func() float64 { return float64(srv.StatsSnapshot().PipelineDepth) })
}

// AttachResilience registers the fault-tolerant backend wrapper's
// retry/breaker counters.
func (o *Observability) AttachResilience(res *resilience.Resilient) {
	r := o.Registry
	snap := func() resilience.Snapshot { return res.Stats() }
	r.Counter("sievestore.resilience.retries", func() int64 { return snap().Retries })
	r.Counter("sievestore.resilience.timeouts", func() int64 { return snap().Timeouts })
	r.Counter("sievestore.resilience.breaker_fast_fails", func() int64 { return snap().BreakerFastFails })
	r.Counter("sievestore.resilience.breaker_trips", func() int64 { return snap().BreakerTrips })
	r.Counter("sievestore.resilience.transient_errors", func() int64 { return snap().TransientErrors })
	r.Counter("sievestore.resilience.permanent_errors", func() int64 { return snap().PermanentErrors })
	r.Gauge("sievestore.resilience.open_devices", func() float64 { return float64(snap().OpenDevices) })
	// Per-edge transition counters: breaker_trips above conflates
	// closed→open with failed half-open probes; these keep each edge of
	// the state machine separately countable for failover post-mortems.
	r.Counter("sievestore.resilience.breaker_transitions_closed_open", func() int64 { return snap().Transitions.ClosedOpen })
	r.Counter("sievestore.resilience.breaker_transitions_open_half_open", func() int64 { return snap().Transitions.OpenHalfOpen })
	r.Counter("sievestore.resilience.breaker_transitions_half_open_closed", func() int64 { return snap().Transitions.HalfOpenClosed })
	r.Counter("sievestore.resilience.breaker_transitions_half_open_open", func() int64 { return snap().Transitions.HalfOpenOpen })
}

// Handler returns the HTTP mux serving /metrics, /statusz, and
// /debug/ops. Mount it on any listener (cmd/appliance's -metrics flag
// serves exactly this).
func (o *Observability) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		body := map[string]any{
			"variant":        o.store.Variant().String(),
			"policy":         o.store.Policy(),
			"shards":         o.store.Shards(),
			"uptime_seconds": o.now().Sub(o.start).Seconds(),
			"metrics":        o.Registry.JSONStatus(),
		}
		// The per-tenant QoS table, when tenant tracking is on: quotas,
		// occupancy, hit ratios, and endurance state per (server, volume).
		if tn, ok := o.store.TenantStats(); ok {
			body["tenants"] = tn
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	})
	mux.HandleFunc("/debug/ops", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		traces := o.store.Traces()
		body := map[string]any{
			"sampled": traces != nil,
			"ops":     traces,
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	})
	return mux
}
