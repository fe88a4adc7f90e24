// Package metrics is the appliance's metric registry and the latency
// histogram the store times its calls into.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Kind distinguishes how a scalar metric is exported: counters are
// monotone totals, gauges are instantaneous levels.
type Kind int

const (
	// KindCounter is a monotonically non-decreasing total.
	KindCounter Kind = iota
	// KindGauge is an instantaneous level that can go up and down.
	KindGauge
)

// Registry collects named metrics — scalars read through getter functions
// and histograms read through snapshot functions — under stable dotted
// names (e.g. "sievestore.core.read_hits"), and renders them as
// Prometheus text format or a JSON-friendly map. Registration is cheap
// and idempotent per name (last registration wins); collection calls the
// getters at scrape time, so the registry itself holds no counter state.
// It is safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	scalars  map[string]scalarEntry
	hists    map[string]func() HistogramSnapshot
	prepares []func()
}

type scalarEntry struct {
	kind Kind
	fn   func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		scalars: make(map[string]scalarEntry),
		hists:   make(map[string]func() HistogramSnapshot),
	}
}

// OnCollect registers fn to run once at the start of every collection
// (WritePrometheus, JSONStatus). Producers whose counters are expensive to
// snapshot (e.g. a cross-shard stats merge) refresh one cached snapshot
// here and register cheap field getters against it.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prepares = append(r.prepares, fn)
}

// Counter registers a monotone total under name.
func (r *Registry) Counter(name string, fn func() int64) {
	r.scalar(name, KindCounter, func() float64 { return float64(fn()) })
}

// Gauge registers an instantaneous level under name.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.scalar(name, KindGauge, fn)
}

func (r *Registry) scalar(name string, kind Kind, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scalars[name] = scalarEntry{kind: kind, fn: fn}
}

// Histogram registers a histogram under name; fn is called at scrape time.
func (r *Registry) Histogram(name string, fn func() HistogramSnapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[name] = fn
}

// collect snapshots the registry under the read lock after running the
// prepare hooks.
func (r *Registry) collect() (scalars map[string]scalarSample, hists map[string]HistogramSnapshot) {
	r.mu.RLock()
	prepares := r.prepares
	r.mu.RUnlock()
	for _, p := range prepares {
		p()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	scalars = make(map[string]scalarSample, len(r.scalars))
	for n, e := range r.scalars {
		scalars[n] = scalarSample{kind: e.kind, value: e.fn()}
	}
	hists = make(map[string]HistogramSnapshot, len(r.hists))
	for n, fn := range r.hists {
		hists[n] = fn()
	}
	return scalars, hists
}

type scalarSample struct {
	kind  Kind
	value float64
}

// promName converts a dotted metric name to a Prometheus-legal one:
// every character outside [a-zA-Z0-9_:] becomes '_'.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, sorted by name. Histograms are emitted with
// cumulative `le` buckets in seconds (only non-empty buckets plus +Inf,
// which keeps the output compact while remaining quantile-derivable),
// plus _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	scalars, hists := r.collect()
	names := make([]string, 0, len(scalars)+len(hists))
	for n := range scalars {
		names = append(names, n)
	}
	for n := range hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		if s, ok := scalars[name]; ok {
			kind := "counter"
			if s.kind == KindGauge {
				kind = "gauge"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %v\n", pn, kind, pn, s.value); err != nil {
				return err
			}
			continue
		}
		h := hists[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		var cum int64
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			cum += c
			le := float64(BucketUpper(i)) / 1e9
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, fmt.Sprintf("%g", le), cum); err != nil {
				return err
			}
		}
		// +Inf and _count repeat the cumulative bucket total (not h.Count,
		// which can drift by an in-flight Observe between stripe reads) so
		// the exposition is internally consistent, as Prometheus requires.
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			pn, cum, pn, float64(h.Sum)/1e9, pn, cum); err != nil {
			return err
		}
	}
	return nil
}

// HistogramStatus is the JSON rendering of one histogram: totals plus
// derived quantiles (nanoseconds).
type HistogramStatus struct {
	Count  int64 `json:"count"`
	SumNS  int64 `json:"sum_ns"`
	MaxNS  int64 `json:"max_ns"`
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
	P999NS int64 `json:"p999_ns"`
}

func histStatus(h HistogramSnapshot) HistogramStatus {
	return HistogramStatus{
		Count:  h.Count,
		SumNS:  h.Sum,
		MaxNS:  h.Max,
		MeanNS: h.Mean().Nanoseconds(),
		P50NS:  h.Quantile(0.50).Nanoseconds(),
		P95NS:  h.Quantile(0.95).Nanoseconds(),
		P99NS:  h.Quantile(0.99).Nanoseconds(),
		P999NS: h.Quantile(0.999).Nanoseconds(),
	}
}

// JSONStatus returns every registered metric as a JSON-encodable map:
// scalars under their dotted names, histograms as HistogramStatus
// objects. This is the /statusz body (the same data as /metrics, shaped
// for programs and humans rather than scrapers).
func (r *Registry) JSONStatus() map[string]any {
	scalars, hists := r.collect()
	out := make(map[string]any, len(scalars)+len(hists))
	for n, s := range scalars {
		out[n] = s.value
	}
	for n, h := range hists {
		out[n] = histStatus(h)
	}
	return out
}

// Uptime is a convenience gauge: registers name as seconds since start.
func (r *Registry) Uptime(name string, start time.Time) {
	r.Gauge(name, func() float64 { return time.Since(start).Seconds() })
}
