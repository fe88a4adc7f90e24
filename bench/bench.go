package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig is one invocation's choices.
type runConfig struct {
	seed    int64
	seconds int
	trace   bool
	// smoke runs about 1 % of each op stream with one set-up round and no
	// bounds: the tests use it so the harness cannot rot.
	smoke bool
}

const (
	setupRounds    = 3
	defaultSeconds = 15 // BENCHMARK.json's run_seconds
)

func (c runConfig) ops(def *workloadDef) int {
	n := def.opsPerSecond * c.seconds
	if c.smoke {
		n /= 100
	}
	return n / epochs * epochs
}

func newStamp() stamp {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return stamp{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// setUp does everything between process start and the first measured op:
// input generation (and the simulator's reference on *_trace), open, dial,
// warm-up.
func setUp(def *workloadDef, cfg runConfig, tr *tracer) (*env, float64, error) {
	t0 := time.Now()
	in, err := def.gen(cfg.seed, cfg.ops(def))
	if err != nil {
		return nil, 0, err
	}
	if cfg.smoke {
		in.warm = in.warm[:(len(in.warm)+99)/100]
	}
	e, err := start(def, in, tr, true)
	return e, time.Since(t0).Seconds(), err
}

// start opens the system over in and warms it.
func start(def *workloadDef, in *inputs, tr *tracer, trackLatency bool) (*env, error) {
	e, err := open(def, in, tr, trackLatency)
	if err != nil {
		return nil, err
	}
	if err := e.warm(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// run measures e's stream once and tears e down.
func (e *env) run() (window, error) {
	w := e.measure()
	err := e.close()
	w.failed += e.be.badWrites.Load() // after close: write-back flushes there too
	return w, err
}

// runWorkload measures one workload. Untraced, it reports the end-to-end
// metrics: it sets up setupRounds times, reports the median set-up time and
// measures on the last. Traced, it runs the stream twice — untraced for the
// reference rate, then with spans — plus the isolated probes, and reports
// the per-layer metrics.
func runWorkload(def *workloadDef, cfg runConfig) (*record, error) {
	r := &record{
		Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Smoke: cfg.smoke,
		Stamp: newStamp(), Metrics: map[string]value{},
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, err
	}
	rounds := setupRounds
	if cfg.smoke || cfg.trace {
		rounds = 1
	}
	var (
		e      *env
		setups []float64
	)
	for i := 0; i < rounds; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
		}
		var (
			s   float64
			err error
		)
		if e, s, err = setUp(def, cfg, nil); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	in := e.in
	r.Ops, r.StreamHash = len(in.ops), fmt.Sprintf("%016x", streamHash(in.warm, in.ops))
	w, err := e.run()
	if err != nil {
		return nil, err
	}
	r.Attempted, r.Failed = int64(w.ops), w.failed

	if !cfg.trace {
		r.set("setup_s", median(setups), int64(len(setups)))
		endToEndMetrics(r, &w)
	} else {
		tr := &tracer{wire: def.wire, t0: time.Now()}
		te, _, err := setUp(def, cfg, tr)
		if err != nil {
			return nil, err
		}
		tw, err := te.run()
		if err != nil {
			return nil, err
		}
		r.Attempted, r.Failed = r.Attempted+int64(tw.ops), r.Failed+tw.failed
		l := tr.folded()
		layerMetrics(r, in, &w, &tw, l, def.wire)
		if err := os.WriteFile(filepath.Join("out", def.name+".spans.jsonl"), l.samples, 0o644); err != nil {
			return nil, err
		}
		if err := probes(r, def, cfg, in); err != nil {
			return nil, err
		}
	}
	check(r, def, cfg, in, &w)
	return r, nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (w *window) hitRatio() float64 {
	a, b := &w.after, &w.before
	return ratio(a.ReadHits+a.WriteHits-b.ReadHits-b.WriteHits, a.Reads+a.Writes-b.Reads-b.Writes)
}

func endToEndMetrics(r *record, w *window) {
	ops := int64(w.ops)
	a, b := &w.after, &w.before
	r.set("ops_per_s", float64(ops)/w.elapsed.Seconds(), ops)
	r.set("read_p50_us", w.read.quantile(0.50)/1e3, w.read.n)
	r.set("read_p99_us", w.read.quantile(0.99)/1e3, w.read.n)
	if w.write.n > 0 {
		r.set("write_p50_us", w.write.quantile(0.50)/1e3, w.write.n)
		r.set("write_p99_us", w.write.quantile(0.99)/1e3, w.write.n)
	}
	accesses := a.Reads + a.Writes - b.Reads - b.Writes
	r.set("hit_ratio", w.hitRatio(), accesses)
	r.set("alloc_writes_per_kblock", 1000*ratio(a.AllocWrites+a.EpochMoves-b.AllocWrites-b.EpochMoves, accesses), accesses)
	r.set("backend_ms_per_kop", 1000*float64(w.busy)/1e6/float64(ops), w.backendReqs)
	r.set("cpu_us_per_op", float64(w.cpu)/1e3/float64(ops), ops)
	r.set("heap_mb", float64(w.heap)/(1<<20), 1)
	r.set("error_share", ratio(w.failed, ops), ops)
}

// check holds the run to what must be true of any correct run; a violation
// makes the process exit non-zero.
func check(r *record, def *workloadDef, cfg runConfig, in *inputs, w *window) {
	if r.Failed > 0 {
		r.violate("%d of %d operations failed or read back wrong bytes", r.Failed, r.Attempted)
	}
	if in.simHit > 0 && !cfg.smoke {
		// The tolerance TestCrossValidationSimVsStore holds store and
		// simulator to.
		if got := w.hitRatio(); math.Abs(got-in.simHit) > 0.25*math.Max(in.simHit, 0.01) {
			r.violate("hit_ratio %.4f is not within 25%% of the simulator's %.4f", got, in.simHit)
		}
	}
	if got := w.hitRatio(); got < def.minHit && !cfg.smoke {
		r.violate("hit_ratio %.4f < %.2f", got, def.minHit)
	}
}
