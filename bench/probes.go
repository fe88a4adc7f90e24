package main

import (
	"os"
	"time"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/sieve"
	"repro/internal/sieved"
)

// The probes drive one layer's public function alone, on one goroutine,
// with the keys the workload itself produced, so a per-layer cost can be
// read without its neighbours. Each runs on the workloads that exercise its
// layer and reports nothing elsewhere.

var sink int64 // keeps the probed calls' results alive

// perCall times n calls of f(i) and returns nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// eachBlock calls f for every block access of the stream, in order.
func eachBlock(ops []op, f func(acc block.Access) bool) {
	for i := range ops {
		o := &ops[i]
		kind := block.Read
		if o.write {
			kind = block.Write
		}
		key := block.MakeKey(int(o.server), int(o.volume), o.off/block.Size)
		for b := 0; b < o.blocks(); b, key = b+1, key+1 {
			if !f(block.Access{Time: o.time, Key: key, Kind: kind}) {
				return
			}
		}
	}
}

// probeCalls is how often a probe calls its function.
func probeCalls(cfg runConfig) int {
	if cfg.smoke {
		return 1 << 14
	}
	return 1 << 20
}

func probes(r *record, def *workloadDef, cfg runConfig, in *inputs) error {
	calls := probeCalls(cfg)
	n64 := int64(calls)

	t0 := time.Now()
	r.set("bench.clock_ns", perCall(calls, func(int) { sink += int64(time.Since(t0)) }), n64)
	src, dst := make([]byte, 16*chunk), make([]byte, chunk)
	r.set("bench.copy4k_ns", perCall(calls, func(i int) { sink += int64(copy(dst, src[i%16*chunk:])) }), n64)
	var h metrics.Histogram
	r.set("metrics.observe_ns", perCall(calls, func(i int) { h.Observe(time.Duration(1000 + i&1023)) }), n64)

	// cache.touch_ns: LRU hits on the stream's own keys, resident ones only.
	lru, err := cache.NewPolicy("lru", cacheBlocks)
	if err != nil {
		return err
	}
	var resident []block.Key
	eachBlock(in.ops, func(acc block.Access) bool {
		if lru.Len() < lru.Capacity() {
			lru.Insert(acc.Key)
		}
		if lru.Contains(acc.Key) {
			resident = append(resident, acc.Key)
		}
		return len(resident) < calls
	})
	r.set("cache.touch_ns", perCall(calls, func(i int) {
		if lru.Touch(resident[i%len(resident)]) {
			sink++
		}
	}), n64)

	return def.probe(r, def, cfg, in)
}

// sieveProbes replays the stream's block accesses through an LRU and the
// paper's sieve to find the miss stream and the admitted keys, then times
// sieve.C.ShouldAllocate on those misses and the LRU's insert-with-evict on
// those keys.
func sieveProbes(r *record, _ *workloadDef, cfg runConfig, in *inputs) error {
	calls := probeCalls(cfg)
	const maxMisses = 2 << 20 // 24 B each
	lru, err := cache.NewPolicy("lru", cacheBlocks)
	if err != nil {
		return err
	}
	s, err := sieve.NewC(traceSieve())
	if err != nil {
		return err
	}
	var (
		misses   []block.Access
		admitted []block.Key
	)
	find := func(acc block.Access) bool {
		if lru.Touch(acc.Key) {
			return true
		}
		misses = append(misses, acc)
		if s.ShouldAllocate(acc) {
			lru.Insert(acc.Key)
			admitted = append(admitted, acc.Key)
		}
		return len(misses) < maxMisses
	}
	eachBlock(in.warm, find)
	eachBlock(in.ops, find)

	// A fresh sieve given the same misses makes the same decisions.
	if s, err = sieve.NewC(traceSieve()); err != nil {
		return err
	}
	r.set("sieve.should_allocate_ns", perCall(len(misses), func(i int) {
		if s.ShouldAllocate(misses[i]) {
			sink++
		}
	}), int64(len(misses)))
	st := s.Stats()
	r.set("sieve.admit_share", ratio(st.Allocations, st.Misses), st.Misses)

	// Cycling over twice the capacity in keys makes every LRU insert a
	// miss that evicts.
	if len(admitted) < 2 {
		return nil
	}
	full, err := cache.NewPolicy("lru", len(admitted)/2)
	if err != nil {
		return err
	}
	for _, k := range admitted {
		full.Insert(k)
	}
	r.set("cache.insert_evict_ns", perCall(calls, func(i int) {
		if _, evicted := full.Insert(admitted[i%len(admitted)]); evicted {
			sink++
		}
	}), int64(calls))
	return nil
}

// sievedProbes logs the stream's first epochs through a sieved.Logger of
// its own and reduces each: the access logging every wire_epochs op pays,
// and the per-key reduction at the heart of a rotation.
func sievedProbes(r *record, _ *workloadDef, _ runConfig, in *inputs) error {
	const probeEpochs = 3
	dir, err := os.MkdirTemp("out", "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lg, err := sieved.NewLogger(dir, sieved.DefaultPartitions)
	if err != nil {
		return err
	}
	defer lg.Close()
	var (
		logNs, logged, tuples int64
		selects               []float64
	)
	for e := 0; e < probeEpochs && (e+1)*in.rotateEvery <= len(in.ops); e++ {
		ops := in.ops[e*in.rotateEvery : (e+1)*in.rotateEvery]
		var logErr error
		t0 := time.Now()
		for i := range ops {
			o := &ops[i]
			req := block.Request{Server: int(o.server), Volume: int(o.volume), Offset: o.off, Length: o.n}
			if err := lg.LogRequest(&req); err != nil {
				logErr = err
			}
		}
		logNs += int64(time.Since(t0))
		if logErr != nil {
			return logErr
		}
		logged += int64(len(ops))
		tuples += lg.TupleCount()
		t0 = time.Now()
		if _, err := lg.Select(sieved.DefaultThreshold); err != nil {
			return err
		}
		selects = append(selects, float64(time.Since(t0))/1e6)
		if err := lg.Reset(); err != nil {
			return err
		}
	}
	if logged == 0 {
		return nil
	}
	r.set("sieved.log_request_ns", float64(logNs)/float64(logged), logged)
	r.set("sieved.select_ms", median(selects), int64(len(selects)))
	r.set("sieved.tuples_per_kop", 1000*ratio(tuples, logged), tuples)
	return nil
}

// hotProbes reruns a short lib_hot with latency tracking on and off — a
// third of the usual stream, whose own first third joins the warm-up so that
// both passes are all hits, the rest measured at the caller — and, with
// every part then known, writes the hit budget.
func hotProbes(r *record, def *workloadDef, cfg runConfig, _ *inputs) error {
	var mean [2]float64
	for i, track := range []bool{true, false} {
		in, err := def.gen(cfg.seed, cfg.ops(def)/3)
		if err != nil {
			return err
		}
		third := len(in.ops) / 3
		in.warm, in.ops = append(in.warm, in.ops[:third]...), in.ops[third:]
		e, err := start(def, in, nil, track)
		if err != nil {
			return err
		}
		w, err := e.run()
		if err != nil {
			return err
		}
		mean[i] = w.read.mean()
		if !track {
			r.set("core.hit_ns_metrics_off", mean[1], w.read.n)
			r.set("core.metrics_overhead_ns", mean[0]-mean[1], w.read.n)
		}
	}
	if cfg.smoke {
		return nil
	}
	return writeHitBudget(r)
}
