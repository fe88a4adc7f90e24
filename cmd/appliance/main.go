// Command appliance runs SieveStore as a standalone TCP block-caching
// appliance daemon (the paper's deployment model, Figure 4): block I/O from
// ensemble servers arrives over the wire, popular blocks are served from
// the cache, everything else is forwarded to the backing store.
//
// The demo backend is the in-memory ensemble; swapping in a real backend
// means implementing core.Backend. The cache survives restarts via a
// snapshot written on SIGINT/SIGTERM and loaded at boot.
//
// Usage:
//
//	appliance -listen :9000 -cache-mb 64 -servers 4 -volume-mb 1024
//	appliance -listen :9000 -policy sieve -shards 8
//	appliance -listen :9000 -variant d -epoch 24h -snapshot /var/lib/sieve.snap
//	appliance -listen :9000 -shards 8 -pprof 127.0.0.1:6060 -mutex-profile-fraction 5
//	appliance -listen :9000 -max-conns 256 -idle-timeout 5m
//	appliance -listen :9000 -metrics 127.0.0.1:9100 -trace-sample 64
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	_ "net/http/pprof" // handlers on DefaultServeMux; only served when -pprof is set
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/store"
)

var (
	listen    = flag.String("listen", "127.0.0.1:9000", "TCP listen address")
	cacheMB   = flag.Int64("cache-mb", 64, "cache size in MiB")
	variant   = flag.String("variant", "c", "sieve variant: c or d")
	policy    = flag.String("policy", "lru", "cache eviction policy: lru or sieve")
	epoch     = flag.Duration("epoch", 24*time.Hour, "SieveStore-D epoch length")
	threshold = flag.Int64("threshold", 10, "SieveStore-D epoch access-count threshold")
	writeBack = flag.Bool("writeback", false, "enable write-back caching")
	snapshot  = flag.String("snapshot", "", "snapshot file: loaded at boot if present, written on shutdown")
	spillDir  = flag.String("spill", "", "SieveStore-D spill directory (resumed across restarts)")
	servers   = flag.Int("servers", 4, "demo backend: number of servers")
	volumeMB  = flag.Int64("volume-mb", 1024, "demo backend: per-server volume size in MiB")
	dataDir   = flag.String("data", "", "back volumes with sparse files under this directory (empty: in-memory)")
	statsEach = flag.Duration("stats", time.Minute, "stats logging interval (0 disables)")
	shards    = flag.Int("shards", 0, "store lock shards, power of two (0: four per CPU, rounded up to a power of two)")
	pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (empty: disabled)")

	metricsAddr = flag.String("metrics", "", "serve /metrics (Prometheus), /statusz (JSON) and /debug/ops on this address (empty: disabled)")
	traceSample = flag.Int("trace-sample", 0, "sample one in N operations into the /debug/ops lifecycle trace ring (0: off)")
	mutexFrac   = flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction rate for /debug/pprof/mutex (0: off)")

	maxConns    = flag.Int("max-conns", 0, "cap on concurrently served connections; extras get a busy error (0: unlimited)")
	idleTimeout = flag.Duration("idle-timeout", 0, "drop a peer that keeps the server waiting this long: idle between requests, stalled mid-frame, or not reading responses (0: never)")

	tenantTrack  = flag.Bool("tenant-track", false, "per-tenant (server, volume) accounting: occupancy, hit ratios, alloc-writes (observe-only)")
	tenantQuotas = flag.Bool("tenant-quotas", false, "enforce per-tenant soft capacity quotas, repartitioned by realized reuse once a sieve subwindow (c) or at each epoch (d) (implies -tenant-track)")
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("appliance: ")
	flag.Parse()

	if *pprofAddr != "" {
		runtime.SetMutexProfileFraction(*mutexFrac) // 0, the default, is off
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			logErr("pprof server", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	st, files := openStore()
	srv := appliance.NewServerWith(st, appliance.ServerOptions{
		MaxConns:    *maxConns,
		IdleTimeout: *idleTimeout,
	})
	if *metricsAddr != "" {
		obs := appliance.NewObservability(st)
		obs.AttachServer(srv)
		go func() {
			log.Printf("observability listening on %s", *metricsAddr)
			logErr("metrics server", http.ListenAndServe(*metricsAddr, obs.Handler()))
		}()
	}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*listen) }()
	log.Printf("%s serving on %s (cache %d MiB, policy %s, %d shards, %d servers × %d MiB, write-back=%v)",
		st.Variant(), *listen, *cacheMB, st.Policy(), st.Shards(), *servers, *volumeMB, *writeBack)

	if *statsEach > 0 {
		go func() {
			for range time.Tick(*statsEach) {
				log.Print(storeStatsLine(st, srv))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if shutdown(done, sig, srv, st, files) != nil {
		os.Exit(1)
	}
}

// shutdown waits for a signal or for Serve to fail, then takes the one
// shutdown path: server, snapshot, store (flushing write-back blocks), file
// backend. It returns Serve's error, or nil after a signal.
func shutdown(done <-chan error, sig <-chan os.Signal, srv *appliance.Server, st *core.Store, files *store.File) (err error) {
	select {
	case err = <-done:
		log.Printf("serve: %v", err)
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
	}
	logErr("server close", srv.Close())
	if *snapshot != "" {
		if err := writeSnapshot(st, *snapshot); err != nil {
			log.Printf("snapshot save failed: %v", err)
		} else {
			log.Printf("snapshot saved to %s", *snapshot)
		}
	}
	logErr("store close", st.Close())
	if files != nil {
		logErr("backend close", files.Close())
	}
	return err
}

// logErr logs err, if any, as the failure of what.
func logErr(what string, err error) {
	if err != nil {
		log.Printf("%s: %v", what, err)
	}
}

// openStore opens the local store: the demo backend under a core.Store
// warmed from the snapshot. files is the file backend, closed after the
// store drains into it; nil for memory.
func openStore() (st *core.Store, files *store.File) {
	backend, files := openBackend()
	st, err := core.Open(backend, storeOptions())
	if err != nil {
		log.Fatal(err)
	}
	if *snapshot != "" {
		switch loaded, err := loadSnapshot(st, *snapshot); {
		case err != nil:
			log.Printf("snapshot load failed (starting cold): %v", err)
		case loaded:
			log.Printf("warm start: %d blocks restored", st.Stats().CachedBlocks)
		}
	}
	return st, files
}

// openBackend builds the demo ensemble: sparse files under -data, or
// memory. files is the file backend, closed (and so synced) after the
// store drains into it; nil for memory.
func openBackend() (backend core.Backend, files *store.File) {
	if *dataDir == "" {
		mem := store.NewMem()
		for s := 0; s < *servers; s++ {
			mem.AddVolume(s, 0, uint64(*volumeMB)<<20)
		}
		return mem, nil
	}
	fb, err := store.NewFile(*dataDir)
	if err != nil {
		log.Fatal(err)
	}
	for s := 0; s < *servers; s++ {
		if err := fb.AddVolume(s, 0, uint64(*volumeMB)<<20); err != nil {
			log.Fatal(err)
		}
	}
	return fb, fb
}

// storeOptions maps the flags onto core.Options. The appliance always
// tracks latency: its stats line and /metrics report it.
func storeOptions() core.Options {
	nShards := *shards
	if nShards == 0 {
		nShards = core.DefaultShards()
	}
	opts := core.Options{
		CacheBytes:   *cacheMB << 20,
		WriteBack:    *writeBack,
		TrackLatency: true,
		Shards:       nShards,
		Policy:       *policy,
		TraceSample:  *traceSample,

		TenantTracking: *tenantTrack,
		TenantQuotas:   *tenantQuotas,
	}
	switch *variant {
	case "c":
		opts.Variant = core.VariantC
	case "d":
		opts.Variant = core.VariantD
		opts.Epoch = *epoch
		opts.DThreshold = *threshold
		opts.SpillDir = *spillDir
	default:
		log.Fatalf("unknown variant %q", *variant)
	}
	return opts
}

// storeStatsLine is the -stats line: the cache's counters and the server's
// busy rejects. rdLat/wrLat are mean/max of the store's latency histograms,
// which hold the timed calls: one in eight at random, plus every traced
// one (core.Options.TrackLatency).
func storeStatsLine(st *core.Store, srv *appliance.Server) string {
	s := st.Stats()
	line := fmt.Sprintf("stats: accesses=%d hit=%.1f%% cached=%d/%d dirty=%d allocW=%d epochs=%d coalesced=%d",
		s.Reads+s.Writes, 100*s.HitRatio(), s.CachedBlocks, s.CapacityBlocks,
		s.DirtyBlocks, s.AllocWrites, s.Epochs, s.CoalescedReads)
	if s.SelectOverflow > 0 {
		line += fmt.Sprintf(" selOverflow=%d", s.SelectOverflow)
	}
	if s.FlushErrors > 0 || s.RotateFailures > 0 || s.ResetFailures > 0 {
		line += fmt.Sprintf(" flushErr=%d rotateFail=%d resetFail=%d",
			s.FlushErrors, s.RotateFailures, s.ResetFailures)
	}
	if s.Tenants > 0 {
		line += fmt.Sprintf(" tenants=%d", s.Tenants)
		if s.QuotaDenials > 0 || s.TenantClips > 0 {
			line += fmt.Sprintf(" quotaDeny=%d tenantClips=%d", s.QuotaDenials, s.TenantClips)
		}
	}
	if s.SpillDisables > 0 {
		line += fmt.Sprintf(" spillDisables=%d", s.SpillDisables)
	}
	if n := srv.StatsSnapshot().BusyRejects; n > 0 {
		line += fmt.Sprintf(" busyRejects=%d", n)
	}
	rd, wr := st.LatencyHistograms()
	return line + fmt.Sprintf(" rdLat=%v/%v wrLat=%v/%v",
		rd.Mean().Round(time.Microsecond), time.Duration(rd.Max).Round(time.Microsecond),
		wr.Mean().Round(time.Microsecond), time.Duration(wr.Max).Round(time.Microsecond))
}

// loadSnapshot restores st from the file at path. A file that does not
// exist is a cold start (loaded false), not an error; a file that cannot
// be opened or read is.
func loadSnapshot(st *core.Store, path string) (loaded bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	if err := st.LoadSnapshot(f); err != nil {
		return false, err
	}
	return true, nil
}

// writeSnapshot saves atomically: it writes and syncs a temp file, renames
// it over path, and syncs the directory, so a crash leaves either the old
// snapshot or the whole new one. On failure the temp file is removed and
// path is untouched.
func writeSnapshot(st *core.Store, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err = st.SaveSnapshot(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
