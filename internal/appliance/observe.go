package appliance

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sieve"
	"repro/internal/sieved"
	"repro/internal/tenant"
)

// Observability collects every counter the system computes — per-shard
// core stats, sieve/IMCT state, SieveStore-D spill-log partition stats,
// and appliance server stats — into a
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

	mu   sync.RWMutex
	last scrape

	// Tenants appear dynamically as I/O arrives, so their per-tenant
	// series are registered lazily from refresh (the registry has no
	// labels — the identity lives in the metric name).
	tenantSeen map[tenant.ID]bool
}

// NewObservability builds a registry over st's counters. Attach the server
// with AttachServer, then serve Handler.
func NewObservability(st *core.Store) *Observability {
	o := &Observability{
		Registry:   metrics.NewRegistry(),
		store:      st,
		start:      time.Now(),
		tenantSeen: make(map[tenant.ID]bool),
	}
	r := o.Registry
	r.OnCollect(o.refresh)
	r.Uptime("sievestore.uptime_seconds", o.start)
	o.registerCore()

	// The active eviction policy, info-style: one series per policy a
	// store runs (cache.NewPolicy), 1 on the active one, and the eviction
	// counter attributed to it (the registry has no labels, so the policy
	// name lives in the metric name — sievestore_core_policy_evictions_sieve
	// etc.).
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
			return o.scraped().stats.Evictions
		})
	}

	sc := func(name string, f func(sieve.CStats) int64) {
		r.Counter("sievestore.sieve."+name, func() int64 { return f(o.scraped().sieve) })
	}
	sc("misses", func(s sieve.CStats) int64 { return s.Misses })
	sc("promotions", func(s sieve.CStats) int64 { return s.Promotions })
	sc("allocations", func(s sieve.CStats) int64 { return s.Allocations })
	sc("pruned", func(s sieve.CStats) int64 { return s.Pruned })
	r.Gauge("sievestore.sieve.mct_size", func() float64 { return float64(o.scraped().sieve.MCTSize) })

	if _, ok := st.SpillStats(); ok {
		sg := func(name string, f func(sieved.LoggerStats) float64) {
			r.Gauge("sievestore.sieved."+name, func() float64 { return f(o.scraped().spill) })
		}
		sg("partitions", func(s sieved.LoggerStats) float64 { return float64(s.Partitions) })
		sg("tuples", func(s sieved.LoggerStats) float64 { return float64(s.Tuples) })
		sg("max_partition_tuples", func(s sieved.LoggerStats) float64 { return float64(s.MaxPartitionTuples) })
		sg("pending_epochs", func(s sieved.LoggerStats) float64 { return float64(s.PendingEpochs) })
	}
	return o
}

// registerCore publishes the store's merged counters, gauges and latency
// histograms under sievestore.core.*: one series per core.StatFields row
// (the tenant rows only with tenant tracking on), each reading the
// scrape's core.Stats snapshot, plus the series derived from it. The
// histograms hold the store's timed sample (core.Options.TrackLatency);
// read_ops/write_ops count every call.
func (o *Observability) registerCore() {
	r, st := o.Registry, o.store
	r.Gauge("sievestore.core.shards", func() float64 { return float64(st.Shards()) })
	r.Histogram("sievestore.core.read_latency", func() metrics.HistogramSnapshot {
		rd, _ := st.LatencyHistograms()
		return rd
	})
	r.Histogram("sievestore.core.write_latency", func() metrics.HistogramSnapshot {
		_, wr := st.LatencyHistograms()
		return wr
	})
	_, tenants := st.TenantStats()
	for _, f := range core.StatFields {
		if f.Tenant && !tenants {
			continue
		}
		name, of := "sievestore.core."+f.Name, f.Of
		val := func() int64 { s := o.scraped().stats; return *of(&s) }
		if f.Kind == metrics.KindGauge {
			r.Gauge(name, func() float64 { return float64(val()) })
		} else {
			r.Counter(name, val)
		}
	}
	r.Counter("sievestore.core.cache_bytes_served", func() int64 { return o.scraped().stats.ReadHits * block.Size })
	r.Gauge("sievestore.core.hit_ratio", func() float64 { return o.scraped().stats.HitRatio() })
}

// scrape is one collection's snapshot of the store, which every metric
// of that collection reads.
type scrape struct {
	stats   core.Stats
	sieve   sieve.CStats
	spill   sieved.LoggerStats
	tenants []tenant.Snapshot
}

// scraped returns the current collection's snapshot.
func (o *Observability) scraped() scrape {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.last
}

// refresh snapshots the store once per collection.
func (o *Observability) refresh() {
	sc := scrape{stats: o.store.Stats(), sieve: o.store.SieveStats()}
	sc.spill, _ = o.store.SpillStats()
	sc.tenants, _ = o.store.TenantStats()
	o.mu.Lock()
	o.last = sc
	var fresh []tenant.Snapshot
	for _, t := range sc.tenants {
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
	tc("selection_clips", func(s tenant.Snapshot) int64 { return s.SelectionClips })
	tg("quota_blocks", func(s tenant.Snapshot) float64 { return float64(s.QuotaBlocks) })
	tg("occupancy_blocks", func(s tenant.Snapshot) float64 { return float64(s.OccupancyBlocks) })
	tg("hit_ratio", func(s tenant.Snapshot) float64 { return s.HitRatio() })
}

// tenantSnapFor returns the cached snapshot for one tenant, found by
// binary search in the ID-sorted snapshot (zero value if the tenant
// vanished from the snapshot, which cannot happen today — tenants are
// never forgotten).
func (o *Observability) tenantSnapFor(id tenant.ID) tenant.Snapshot {
	tn := o.scraped().tenants
	if i := sort.Search(len(tn), func(i int) bool { return tn[i].ID >= id }); i < len(tn) && tn[i].ID == id {
		return tn[i]
	}
	return tenant.Snapshot{}
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
		body := map[string]any{
			"variant":        o.store.Variant().String(),
			"policy":         o.store.Policy(),
			"shards":         o.store.Shards(),
			"uptime_seconds": time.Since(o.start).Seconds(),
			"metrics":        o.Registry.JSONStatus(),
		}
		// The per-tenant QoS table, when tenant tracking is on: quotas,
		// occupancy, hit ratios, denials and clips per (server, volume).
		if tn, ok := o.store.TenantStats(); ok {
			body["tenants"] = tn
		}
		writeJSON(w, body)
	})
	mux.HandleFunc("/debug/ops", func(w http.ResponseWriter, req *http.Request) {
		traces := o.store.Traces()
		writeJSON(w, map[string]any{
			"sampled": traces != nil,
			"ops":     traces,
		})
	})
	return mux
}

// writeJSON writes body as indented JSON.
func writeJSON(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}
