package appliance

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/sieve"
	"repro/internal/store"
)

// startObservedServer runs a full stack — memory backend, VariantC
// store with tracing, appliance server, observability HTTP endpoint — and
// returns a wire client plus the base URL of the metrics listener.
func startObservedServer(t *testing.T) (*Client, *core.Store, string) {
	t.Helper()
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<24)
	st, err := core.Open(be, core.Options{
		CacheBytes:   256 * block.Size,
		Variant:      core.VariantC,
		TrackLatency: true,
		TraceSample:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(l) }()
	client, err := DialWith(l.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}

	obs := NewObservability(st)
	obs.AttachServer(srv)
	web := httptest.NewServer(obs.Handler())

	t.Cleanup(func() {
		web.Close()
		client.Close()
		srv.Close()
		<-done
		st.Close()
	})
	return client, st, web.URL
}

func httpGet(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String(), resp
}

// TestObservabilityEndToEnd drives real I/O through the wire protocol and
// checks that /metrics, /statusz, and /debug/ops all report it.
func TestObservabilityEndToEnd(t *testing.T) {
	client, st, base := startObservedServer(t)

	// 4 writes then 8 reads of the same blocks: the default sieve won't
	// admit single-access blocks, but reads repeat so some blocks get hot.
	buf := bytes.Repeat([]byte{0x5A}, 2*block.Size)
	for i := 0; i < 4; i++ {
		if err := client.WriteAt(0, 0, buf, uint64(i)*uint64(len(buf))); err != nil {
			t.Fatal(err)
		}
	}
	rd := make([]byte, block.Size)
	for pass := 0; pass < 8; pass++ {
		for i := 0; i < 4; i++ {
			if err := client.ReadAt(0, 0, rd, uint64(i)*2*block.Size); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats := st.Stats()
	if stats.Reads == 0 || stats.Writes == 0 {
		t.Fatalf("no I/O recorded: %+v", stats)
	}

	// /metrics: Prometheus text format with the core counters and a
	// quantile-derivable read-latency histogram.
	body, resp := httpGet(t, base+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE sievestore_core_reads counter",
		"# TYPE sievestore_core_read_hits counter",
		"# TYPE sievestore_core_alloc_writes counter",
		"# TYPE sievestore_core_read_latency histogram",
		"sievestore_core_read_latency_bucket{le=\"+Inf\"}",
		"sievestore_core_read_latency_sum",
		"sievestore_core_read_latency_count",
		"# TYPE sievestore_core_hit_ratio gauge",
		"# TYPE sievestore_server_requests counter",
		"# TYPE sievestore_sieve_misses counter",
		"sievestore_uptime_seconds",
		"# TYPE sievestore_core_select_overflow counter",
		"sievestore_core_policy_lru 1",
		"sievestore_core_policy_sieve 0",
		"# TYPE sievestore_core_policy_evictions_lru counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The read counter value must match the store's own accounting.
	wantReads := "sievestore_core_reads " + itoa(stats.Reads)
	if !strings.Contains(body, wantReads) {
		t.Errorf("/metrics missing %q\n%s", wantReads, grepLines(body, "sievestore_core_reads"))
	}
	// The histogram recorded every read op.
	wantCount := "sievestore_core_read_latency_count " + itoa(stats.ReadOps)
	if !strings.Contains(body, wantCount) {
		t.Errorf("/metrics missing %q\n%s", wantCount, grepLines(body, "read_latency_count"))
	}

	// /statusz: same data as JSON.
	body, resp = httpGet(t, base+"/statusz")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/statusz content-type = %q", ct)
	}
	var status struct {
		Variant string         `json:"variant"`
		Policy  string         `json:"policy"`
		Shards  int            `json:"shards"`
		Uptime  float64        `json:"uptime_seconds"`
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/statusz is not JSON: %v\n%s", err, body)
	}
	if status.Variant != "SieveStore-C" || status.Shards != st.Shards() {
		t.Errorf("/statusz header = %+v", status)
	}
	if status.Policy != st.Policy() {
		t.Errorf("/statusz policy = %q, want %q", status.Policy, st.Policy())
	}
	if got := status.Metrics["sievestore.core.reads"].(float64); got != float64(stats.Reads) {
		t.Errorf("/statusz reads = %v, want %d", got, stats.Reads)
	}
	lat, ok := status.Metrics["sievestore.core.read_latency"].(map[string]any)
	if !ok {
		t.Fatalf("/statusz read_latency = %T", status.Metrics["sievestore.core.read_latency"])
	}
	if lat["count"].(float64) != float64(stats.ReadOps) || lat["p99_ns"].(float64) <= 0 {
		t.Errorf("/statusz read_latency = %v", lat)
	}

	// /debug/ops: every op was sampled (TraceSample=1); the ring holds all
	// 36 (4 writes, 32 reads) with populated lifecycle fields.
	body, resp = httpGet(t, base+"/debug/ops")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/debug/ops content-type = %q", ct)
	}
	var ops struct {
		Sampled bool `json:"sampled"`
		Ops     []struct {
			Seq       uint64 `json:"seq"`
			Op        string `json:"op"`
			Blocks    int    `json:"blocks"`
			Shard     int    `json:"shard"`
			Hits      int    `json:"hits"`
			Misses    int    `json:"misses"`
			LatencyNS int64  `json:"latency_ns"`
			StartNS   int64  `json:"start_unix_ns"`
		} `json:"ops"`
	}
	if err := json.Unmarshal([]byte(body), &ops); err != nil {
		t.Fatalf("/debug/ops is not JSON: %v\n%s", err, body)
	}
	if !ops.Sampled || len(ops.Ops) != 36 {
		t.Fatalf("/debug/ops sampled=%v n=%d, want true/36", ops.Sampled, len(ops.Ops))
	}
	for i, op := range ops.Ops {
		if op.Op != "read" && op.Op != "write" {
			t.Errorf("op %d: kind %q", i, op.Op)
		}
		if op.Blocks <= 0 || op.LatencyNS < 0 || op.StartNS <= 0 {
			t.Errorf("op %d: unpopulated record %+v", i, op)
		}
		if i > 0 && op.Seq >= ops.Ops[i-1].Seq {
			t.Errorf("op %d: not newest-first (%d then %d)", i, ops.Ops[i-1].Seq, op.Seq)
		}
	}
	// The last 32 ops were all reads of 1 block each, and the cache was
	// warm by then — the newest records should show hits.
	if ops.Ops[0].Op != "read" || ops.Ops[0].Hits+ops.Ops[0].Misses == 0 {
		t.Errorf("newest op has no cache outcome: %+v", ops.Ops[0])
	}
}

// TestObservabilityNoTracing checks /debug/ops degrades cleanly when the
// store was opened without a trace ring.
func TestObservabilityNoTracing(t *testing.T) {
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<20)
	st, err := core.Open(be, core.Options{CacheBytes: 64 * block.Size, Variant: core.VariantC, Policy: "sieve"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	obs := NewObservability(st)
	web := httptest.NewServer(obs.Handler())
	defer web.Close()

	body, _ := httpGet(t, web.URL+"/debug/ops")
	var ops struct {
		Sampled bool  `json:"sampled"`
		Ops     []any `json:"ops"`
	}
	if err := json.Unmarshal([]byte(body), &ops); err != nil {
		t.Fatal(err)
	}
	if ops.Sampled || len(ops.Ops) != 0 {
		t.Errorf("untraced store: sampled=%v n=%d", ops.Sampled, len(ops.Ops))
	}
	// /metrics still works without a server attached.
	metricsBody, _ := httpGet(t, web.URL+"/metrics")
	if !strings.Contains(metricsBody, "sievestore_core_reads 0") {
		t.Errorf("/metrics missing zero counters:\n%s", grepLines(metricsBody, "core_reads"))
	}
	if strings.Contains(metricsBody, "sievestore_server_") {
		t.Error("/metrics has server metrics without AttachServer")
	}
	// The policy info series follow the configured engine: SIEVE active,
	// LRU inactive, and evictions attributed to the SIEVE series only.
	for _, want := range []string{
		"sievestore_core_policy_sieve 1",
		"sievestore_core_policy_lru 0",
		"sievestore_core_policy_evictions_lru 0",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("/metrics missing %q:\n%s", want, grepLines(metricsBody, "policy"))
		}
	}
}

// TestMetricsSeriesPinned pins the /metrics surface: it renders the widest
// registration there is — a VariantD store with tenant tracking (the
// sieved and tenant families), a server attached, one tenant seen — and
// compares the sorted "# TYPE" lines with testdata/metrics_series.txt. A
// change that adds, removes or renames a series has to edit that file, so
// the change shows in its diff.
func TestMetricsSeriesPinned(t *testing.T) {
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<20)
	st, err := core.Open(be, core.Options{
		CacheBytes:     64 * block.Size,
		Variant:        core.VariantD,
		SpillDir:       t.TempDir(),
		TenantTracking: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.WriteAt(0, 0, make([]byte, block.Size), 0); err != nil {
		t.Fatal(err)
	}
	obs := NewObservability(st)
	obs.AttachServer(NewServer(st))
	web := httptest.NewServer(obs.Handler())
	defer web.Close()

	body, _ := httpGet(t, web.URL+"/metrics")
	var got []string
	for _, l := range strings.Split(body, "\n") {
		if name, ok := strings.CutPrefix(l, "# TYPE "); ok {
			got = append(got, name)
		}
	}
	slices.Sort(got)
	raw, err := os.ReadFile("testdata/metrics_series.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if !slices.Equal(got, want) {
		t.Errorf("/metrics series differ from testdata/metrics_series.txt; got:\n%s", strings.Join(got, "\n"))
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestObservabilityTenantMetrics checks the multi-tenant QoS surface:
// per-tenant series appear lazily in /metrics as tenants start doing
// I/O, the core-level QoS counters are exported, and /statusz carries
// the per-tenant table.
func TestObservabilityTenantMetrics(t *testing.T) {
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<20)
	be.AddVolume(1, 2, 1<<20)
	st, err := core.Open(be, core.Options{
		CacheBytes:     64 * block.Size,
		Variant:        core.VariantC,
		TenantTracking: true,
		TenantQuotas:   true,
		// A permissive sieve so the hot tenant's re-reads are admitted
		// and earn hits within the short workload.
		SieveC: sieve.CConfig{
			IMCTSize: 1 << 10, T1: 1, T2: 1,
			Window: 2 * time.Minute, Subwindows: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	obs := NewObservability(st)
	web := httptest.NewServer(obs.Handler())
	defer web.Close()

	// A scrape before any I/O: core QoS counters are present, no
	// per-tenant series yet.
	body, _ := httpGet(t, web.URL+"/metrics")
	for _, want := range []string{
		"sievestore_core_tenants 0",
		"sievestore_core_quota_denials 0",
		"sievestore_core_tenant_clips 0",
		"sievestore_core_tenant_repartitions 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q before I/O:\n%s", want, grepLines(body, "tenant"))
		}
	}
	if strings.Contains(body, "sievestore_tenant_") {
		t.Errorf("per-tenant series before any I/O:\n%s", grepLines(body, "sievestore_tenant_"))
	}

	// Drive two tenants: (0,0) re-reads a small set so it earns hits,
	// (1,2) touches each block once.
	buf := bytes.Repeat([]byte{0x7E}, block.Size)
	rd := make([]byte, block.Size)
	for i := 0; i < 8; i++ {
		if err := st.WriteAt(0, 0, buf, uint64(i)*block.Size); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 10; pass++ {
		for i := 0; i < 8; i++ {
			if err := st.ReadAt(0, 0, rd, uint64(i)*block.Size); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 16; i++ {
		if err := st.ReadAt(1, 2, rd, uint64(i)*block.Size); err != nil {
			t.Fatal(err)
		}
	}

	snaps, ok := st.TenantStats()
	if !ok || len(snaps) != 2 {
		t.Fatalf("TenantStats = %v, %v; want 2 tenants", snaps, ok)
	}

	// The next scrape registers both tenants' series and reports their
	// live counters.
	body, _ = httpGet(t, web.URL+"/metrics")
	// Bytes served from the cache are the read hits' blocks.
	hits := st.Stats().ReadHits
	if want := "sievestore_core_cache_bytes_served " + itoa(hits*block.Size); hits == 0 || !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q (read hits %d)\n%s", want, hits, grepLines(body, "cache_bytes_served"))
	}
	for _, want := range []string{
		"sievestore_core_tenants 2",
		"# TYPE sievestore_tenant_0_0_reads counter",
		"# TYPE sievestore_tenant_0_0_hit_ratio gauge",
		"sievestore_tenant_0_0_reads 80",
		"sievestore_tenant_0_0_writes 8",
		"sievestore_tenant_1_2_reads 16",
		"sievestore_tenant_1_2_writes 0",
		"sievestore_tenant_0_0_quota_blocks",
		"sievestore_tenant_0_0_occupancy_blocks",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, grepLines(body, "tenant"))
		}
	}
	// The hot tenant earned hits; they show up in its series.
	hot := snaps[0]
	if hot.Server != 0 || hot.Volume != 0 || hot.Hits == 0 {
		t.Fatalf("unexpected first tenant snapshot: %+v", hot)
	}
	if want := "sievestore_tenant_0_0_hits " + itoa(hot.Hits); !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q:\n%s", want, grepLines(body, "hits"))
	}

	// /statusz carries the per-tenant table with identity and quotas.
	statusBody, _ := httpGet(t, web.URL+"/statusz")
	var status struct {
		Tenants []struct {
			Server          int   `json:"server"`
			Volume          int   `json:"volume"`
			QuotaBlocks     int64 `json:"quota_blocks"`
			OccupancyBlocks int64 `json:"occupancy_blocks"`
			Reads           int64 `json:"reads"`
			Hits            int64 `json:"hits"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(statusBody), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Tenants) != 2 {
		t.Fatalf("/statusz tenants = %+v, want 2 entries", status.Tenants)
	}
	if status.Tenants[0].Server != 0 || status.Tenants[0].Volume != 0 ||
		status.Tenants[1].Server != 1 || status.Tenants[1].Volume != 2 {
		t.Errorf("/statusz tenant identities wrong: %+v", status.Tenants)
	}
	if status.Tenants[0].Reads != 80 || status.Tenants[0].Hits == 0 {
		t.Errorf("/statusz hot tenant counters wrong: %+v", status.Tenants[0])
	}
	if status.Tenants[0].QuotaBlocks <= 0 {
		t.Errorf("/statusz hot tenant quota = %d, want > 0", status.Tenants[0].QuotaBlocks)
	}

	// A store without tenant tracking exports none of this.
	be2 := store.NewMem()
	be2.AddVolume(0, 0, 1<<20)
	st2, err := core.Open(be2, core.Options{CacheBytes: 64 * block.Size, Variant: core.VariantC})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	obs2 := NewObservability(st2)
	web2 := httptest.NewServer(obs2.Handler())
	defer web2.Close()
	body2, _ := httpGet(t, web2.URL+"/metrics")
	if strings.Contains(body2, "tenant") {
		t.Errorf("untracked store exports tenant series:\n%s", grepLines(body2, "tenant"))
	}
	status2, _ := httpGet(t, web2.URL+"/statusz")
	if strings.Contains(status2, "\"tenants\"") {
		t.Errorf("untracked store /statusz has tenants table:\n%s", status2)
	}
}

// TestMetricsValuesPinned pins the value of every /metrics sample but the
// histograms and the wall-clock uptime, byte for byte, against
// testdata/metrics_values.txt. One goroutine drives a VariantD write-back
// store on an injected clock — hot and cold writes, re-reads, a read past
// the volume's end, an epoch rotation, hits after it, a second rotation
// onto a new hot set, a flush — so each
// counter the store keeps moves and the run is the same every time.
func TestMetricsValuesPinned(t *testing.T) {
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<20)
	be.AddVolume(1, 2, 1<<20)
	clk := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	st, err := core.Open(be, core.Options{
		CacheBytes:     64 * block.Size,
		Shards:         1,
		Variant:        core.VariantD,
		DThreshold:     2,
		Epoch:          time.Hour,
		SpillDir:       t.TempDir(),
		WriteBack:      true,
		TrackLatency:   true,
		TenantTracking: true,
		Now:            func() time.Time { return clk },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	page := make([]byte, 8*block.Size)
	io := func(write bool, server, volume int, off uint64) {
		t.Helper()
		var err error
		if write {
			err = st.WriteAt(server, volume, page, off)
		} else {
			err = st.ReadAt(server, volume, page, off)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 12; i++ {
			io(i%3 == 0, 0, 0, i*4096)
			clk = clk.Add(time.Second)
		}
		io(true, 1, 2, uint64(round)*4096)
	}
	if err := st.ReadAt(0, 0, page, 1<<20); err == nil {
		t.Fatal("read past the volume's end succeeded")
	}
	clk = clk.Add(time.Hour)
	for i := uint64(0); i < 12; i++ {
		io(i%4 == 0, 0, 0, i*4096)
	}
	io(false, 1, 2, 0)
	for round := 0; round < 2; round++ {
		for i := uint64(12); i < 24; i++ {
			io(false, 0, 0, i*4096)
		}
	}
	clk = clk.Add(time.Hour)
	io(false, 0, 0, 12*4096)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	obs := NewObservability(st)
	obs.AttachServer(NewServer(st))
	web := httptest.NewServer(obs.Handler())
	defer web.Close()

	body, _ := httpGet(t, web.URL+"/metrics")
	var got strings.Builder
	for _, l := range strings.Split(body, "\n") {
		name, _, _ := strings.Cut(l, " ")
		if l == "" || strings.HasPrefix(l, "#") || name == "sievestore_uptime_seconds" ||
			strings.HasPrefix(name, "sievestore_core_read_latency") || strings.HasPrefix(name, "sievestore_core_write_latency") {
			continue
		}
		got.WriteString(l + "\n")
	}
	if want, err := os.ReadFile("testdata/metrics_values.txt"); err != nil || got.String() != string(want) {
		t.Errorf("/metrics values moved (%v):\n got:\n%s\nwant:\n%s", err, got.String(), want)
	}
}
