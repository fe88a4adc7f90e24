package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
	"repro/internal/store"
)

// clients is the load: a closed loop of two goroutines (= nproc on the box
// the bounds were set on), one v2 connection each on wire_*.
const clients = 2

// target is what a client drives: *core.Store on lib_*, *appliance.Client
// on wire_*, or the traced wrapper of the store.
type target interface {
	ReadAt(server, volume int, p []byte, off uint64) error
	WriteAt(server, volume int, p []byte, off uint64) error
	RotateEpoch() error
	Flush() error
}

// vclock is the virtual clock of the *_trace workloads: the largest trace
// time any client has issued so far.
type vclock struct {
	base time.Time
	ns   atomic.Int64
}

func (c *vclock) Now() time.Time { return c.base.Add(time.Duration(c.ns.Load())) }

func (c *vclock) advance(t int64) {
	for {
		cur := c.ns.Load()
		if t <= cur || c.ns.CompareAndSwap(cur, t) {
			return
		}
	}
}

// env is one opened system under test: backend, store, and on wire_* the
// in-process appliance server with its client connections.
type env struct {
	in      *inputs
	tr      *tracer // nil on untraced runs
	be      *synth
	lat     *store.Latency
	st      *core.Store
	srv     *appliance.Server
	srvDone chan struct{}
	conns   []*appliance.Client
	targets [clients]target
	clock   *vclock
	spill   string
	// heapBase is the live heap just before core.Open, inputs included, so
	// heap_mb is what store, server and connections hold.
	heapBase uint64
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// open builds the system for def over in. The store runs cmd/appliance's
// defaults — VariantC, LRU, one shard per CPU, write-through, latency
// tracking on — unless the workload's tune says otherwise.
func open(def *workloadDef, in *inputs, tr *tracer, trackLatency bool) (e *env, err error) {
	e = &env{in: in, tr: tr, be: &synth{}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	e.lat = &store.Latency{Backend: e.be, PerRequest: 8 * time.Millisecond, PerByte: 10 * time.Nanosecond}
	var backend core.Backend = e.lat
	if tr != nil {
		backend = &tracedBackend{Backend: e.lat, tr: tr}
	}
	opts := core.Options{CacheBytes: cacheBytes, Shards: core.DefaultShards(), TrackLatency: trackLatency}
	if in.virtualClock {
		e.clock = &vclock{base: time.Date(2007, 2, 22, 17, 0, 0, 0, time.UTC)}
		opts.Now = e.clock.Now
	}
	if def.tune != nil {
		if e.spill, err = os.MkdirTemp("out", "spill-"); err != nil {
			return e, err
		}
		def.tune(&opts, e.spill)
	}
	e.heapBase = liveHeap()
	if e.st, err = core.Open(backend, opts); err != nil {
		return e, err
	}
	var bs appliance.BlockStore = e.st
	if tr != nil {
		bs = &tracedStore{BlockStore: e.st, tr: tr}
	}
	if !def.wire {
		for c := range e.targets {
			e.targets[c] = bs
		}
		return e, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	e.srv = appliance.NewServer(bs)
	e.srvDone = make(chan struct{})
	go func() { defer close(e.srvDone); e.srv.Serve(l) }()
	for c := range e.targets {
		cl, err := appliance.DialWith(l.Addr().String(), appliance.DialOptions{Protocol: appliance.ProtocolV2})
		if err != nil {
			return e, err
		}
		e.conns = append(e.conns, cl)
		e.targets[c] = cl
	}
	return e, nil
}

// close stops connections, server and store, waits for the server's
// goroutines, and removes the spill directory.
func (e *env) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	for _, cl := range e.conns {
		keep(cl.Close())
	}
	if e.srv != nil {
		keep(e.srv.Close())
		<-e.srvDone
	}
	if e.st != nil {
		keep(e.st.Close())
	}
	if e.spill != "" {
		keep(os.RemoveAll(e.spill))
	}
	return first
}

// tally is what one client measured.
type tally struct {
	read, write   hist
	duringRotate  hist // reads that overlapped a rotation, traced runs only
	rotate, flush hist
	failed        int64
	bytes         int64 // read and written
	readBytes     int64
}

func (t *tally) merge(o *tally) {
	t.read.merge(&o.read)
	t.write.merge(&o.write)
	t.duringRotate.merge(&o.duringRotate)
	t.rotate.merge(&o.rotate)
	t.flush.merge(&o.flush)
	t.failed += o.failed
	t.bytes += o.bytes
	t.readBytes += o.readBytes
}

// rotate runs the epoch boundary inline in the calling client, as the
// appliance's operator would: RotateEpoch, then Flush.
func (e *env) rotate(c int, t *tally) {
	tgt := e.targets[c]
	if e.tr != nil {
		e.tr.beginBackground()
		defer e.tr.endBackground()
	}
	t0 := time.Now()
	if err := tgt.RotateEpoch(); err != nil {
		t.failed++
	}
	t1 := time.Now()
	if err := tgt.Flush(); err != nil {
		t.failed++
	}
	t.rotate.observe(int64(t1.Sub(t0)))
	t.flush.observe(int64(time.Since(t1)))
}

// drive runs ops through the two clients. They pull from one shared index,
// so the order ops are issued in is the stream's. A failed or mis-verified
// op counts in failed and in no latency figure.
func (e *env) drive(ops []op) tally {
	maxLen := 0
	for i := range ops {
		if int(ops[i].n) > maxLen {
			maxLen = int(ops[i].n)
		}
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		parts [clients]tally
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t, tgt, buf := &parts[c], e.targets[c], make([]byte, maxLen)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				if e.in.rotateEvery > 0 && i > 0 && i%e.in.rotateEvery == 0 {
					e.rotate(c, t)
				}
				if e.clock != nil {
					e.clock.advance(o.time)
				}
				p, server, volume := buf[:o.n], int(o.server), int(o.volume)
				if o.write {
					fillBlocks(p, server, volume, o.off)
				}
				var overlapped bool
				if e.tr != nil {
					overlapped = e.tr.background.Load()
					e.tr.begin(c, int64(i), o)
				}
				var err error
				t0 := time.Now()
				if o.write {
					err = tgt.WriteAt(server, volume, p, o.off)
				} else {
					err = tgt.ReadAt(server, volume, p, o.off)
				}
				d := int64(time.Since(t0))
				if e.tr != nil {
					e.tr.end(c, t0, d)
					overlapped = overlapped || e.tr.background.Load()
				}
				switch {
				case err != nil:
					t.failed++
				case o.write:
					t.write.observe(d)
				case badBlocks(p, server, volume, o.off) > 0:
					t.failed++
				default:
					t.read.observe(d)
					t.readBytes += int64(o.n)
					if overlapped {
						t.duringRotate.observe(d)
					}
				}
				t.bytes += int64(o.n)
			}
		}(c)
	}
	wg.Wait()
	var sum tally
	for c := range parts {
		sum.merge(&parts[c])
	}
	return sum
}

// warm issues the warm-up stream, unmeasured, and the warm-up rotation.
func (e *env) warm() error {
	t := e.drive(e.in.warm)
	if e.in.rotateEvery > 0 {
		e.rotate(0, &t)
	}
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %d operations failed", t.failed)
	}
	return nil
}

// window is one measured pass over the op stream.
type window struct {
	tally
	ops                  int
	elapsed, cpu         time.Duration
	before, after        core.Stats
	busy                 time.Duration // modelled disk time, store.Latency.BusyTime
	backendReqs          int64
	mallocs, mallocBytes uint64
	heap                 uint64 // live heap at the end, store still open, minus heapBase
	srvBefore, srvAfter  appliance.ServerStats
	orphans              int64 // traced: server-side spans no op in flight claimed
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure drives the measured stream and brackets it with the counters
// every metric is a delta of.
func (e *env) measure() window {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w := window{ops: len(e.in.ops), before: e.st.Stats()}
	if e.srv != nil {
		w.srvBefore = e.srv.StatsSnapshot()
	}
	busy0, reqs0 := e.lat.BusyTime(), e.lat.Ops()
	if e.tr != nil {
		e.tr.start()
	}
	cpu0, t0 := cpuTime(), time.Now()
	w.tally = e.drive(e.in.ops)
	w.elapsed, w.cpu = time.Since(t0), cpuTime()-cpu0
	if e.tr != nil {
		w.orphans = e.tr.orphans.Load() // before Close's write-back, which no op causes
	}
	runtime.ReadMemStats(&ms1)
	w.after = e.st.Stats()
	w.busy, w.backendReqs = e.lat.BusyTime()-busy0, e.lat.Ops()-reqs0
	w.mallocs, w.mallocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	if h := liveHeap(); h > e.heapBase {
		w.heap = h - e.heapBase
	}
	if e.srv != nil {
		w.srvAfter = e.srv.StatsSnapshot()
	}
	return w
}
