package core_test

import (
	"fmt"
	"log"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/sieve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file replays a block trace through the store under a virtual clock,
// the bridge between the store and the simulator (internal/sim): requests
// are issued in trace order and the store's clock follows trace time, so
// SieveStore-C windows and SieveStore-D epochs behave as in the paper, and
// per-day statistics are collected for comparison with the simulator's.

// Clock is a virtual clock for core.Options.Now that follows trace time.
// It is safe for concurrent use.
type Clock struct {
	base time.Time
	ns   atomic.Int64
}

// NewClock returns a clock anchored at base (trace time zero).
func NewClock(base time.Time) *Clock { return &Clock{base: base} }

// Now implements the core.Options.Now contract.
func (c *Clock) Now() time.Time { return c.base.Add(time.Duration(c.ns.Load())) }

// Set moves the clock to the given trace time (nanoseconds since epoch).
func (c *Clock) Set(traceNS int64) { c.ns.Store(traceNS) }

// DayReport is one calendar day of a replay.
type DayReport struct {
	Day      int
	Requests int
	// Accesses/Hits/AllocWrites/Moves are deltas for this day, in blocks.
	Accesses    int64
	Hits        int64
	AllocWrites int64
	Moves       int64
}

// HitRatio returns the day's capture ratio.
func (d DayReport) HitRatio() float64 {
	if d.Accesses == 0 {
		return 0
	}
	return float64(d.Hits) / float64(d.Accesses)
}

// Run replays tr through st, stepping clk to each request's issue time.
// Requests are aligned outward to 512-byte block boundaries (the trace may
// contain sub-block requests; the store API is block-granular). With
// rotateDaily, a SieveStore-D store rotates its epoch at each day boundary,
// the paper's calendar-day epochs, beside elapsed-time rotation.
func Run(st *core.Store, tr sim.Trace, clk *Clock, rotateDaily bool) ([]DayReport, error) {
	reports := make([]DayReport, 0, tr.Days())
	var prev core.Stats
	buf := make([]byte, 0, 1<<20)
	for d := 0; d < tr.Days(); d++ {
		reqs, err := tr.Day(d)
		if err != nil {
			return reports, err
		}
		for i := range reqs {
			req := &reqs[i]
			clk.Set(req.Time)
			off := req.Offset / block.Size * block.Size
			end := (req.End() + block.Size - 1) / block.Size * block.Size
			if end == off {
				end = off + block.Size
			}
			n := int(end - off)
			if cap(buf) < n {
				buf = make([]byte, n)
			}
			b := buf[:n]
			if req.Kind == block.Write {
				err = st.WriteAt(req.Server, req.Volume, b, off)
			} else {
				err = st.ReadAt(req.Server, req.Volume, b, off)
			}
			if err != nil {
				return reports, fmt.Errorf("replay: day %d request %d: %w", d, i, err)
			}
		}
		// Nudge the clock past midnight (it only moves when requests
		// arrive) and rotate the epoch if asked.
		clk.Set(int64(d+1) * trace.Day)
		if rotateDaily && st.Variant() == core.VariantD {
			if err := st.RotateEpoch(); err != nil {
				return reports, err
			}
		}
		s := st.Stats()
		reports = append(reports, DayReport{
			Day:         d,
			Requests:    len(reqs),
			Accesses:    (s.Reads + s.Writes) - (prev.Reads + prev.Writes),
			Hits:        s.Hits() - prev.Hits(),
			AllocWrites: s.AllocWrites - prev.AllocWrites,
			Moves:       s.EpochMoves - prev.EpochMoves,
		})
		prev = s
	}
	return reports, nil
}

// BuildBackend constructs an in-memory ensemble with each server's scaled
// volume capacities from a workload configuration, ready to back a replay
// of that workload's trace.
func BuildBackend(cfg workload.Config) *store.Mem {
	backend := store.NewMem()
	for s, sp := range cfg.Servers {
		perVol := uint64(sp.CapacityGB*(1<<30)/float64(cfg.Scale)) / uint64(sp.Volumes)
		perVol = (perVol / block.Size) * block.Size
		for v := 0; v < sp.Volumes; v++ {
			// Slack beyond the nominal capacity absorbs sequential scan
			// requests that run past a chunk boundary.
			backend.AddVolume(s, v, perVol+1<<20)
		}
	}
	return backend
}

// replayScale keeps the replays affordable: a small but non-trivial
// ensemble trace.
const replayScale = 65536

func replayBase() time.Time { return time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC) }

// TestCrossValidationSimVsStore pins the store to the simulator block for
// block: SieveStore-C at one shard, replayed over four days of the
// synthetic ensemble, must book the same accesses, hits and
// allocation-writes as sim.RunContinuous on every day. Both probe every
// block of a request, then sieve its misses as one run at the request's
// issue time, in block order; a change to either call shape fails here.
func TestCrossValidationSimVsStore(t *testing.T) {
	for _, scale := range []int{16384, 65536} {
		t.Run(fmt.Sprintf("1/%d", scale), func(t *testing.T) {
			cfg := workload.Default(scale)
			cfg.Days = 4
			gen, err := workload.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sieveCfg := sieve.CConfig{
				IMCTSize: 1 << 28 / scale, T1: 9, T2: 4,
				Window: 8 * time.Hour, Subwindows: 4,
			}
			capacityBlocks := 16 << 30 / block.Size / scale
			policy, err := sieve.NewC(sieveCfg)
			if err != nil {
				t.Fatal(err)
			}
			simRes, err := sim.RunContinuous(gen, capacityBlocks, policy)
			if err != nil {
				t.Fatal(err)
			}
			clk := NewClock(replayBase())
			st, err := core.Open(BuildBackend(cfg), core.Options{
				CacheBytes: int64(capacityBlocks) * block.Size,
				Shards:     1,
				Variant:    core.VariantC,
				SieveC:     sieveCfg,
				Now:        clk.Now,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			reports, err := Run(st, gen, clk, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) != len(simRes.Days) {
				t.Fatalf("store replayed %d days, the simulator %d", len(reports), len(simRes.Days))
			}
			for d, rep := range reports {
				s := simRes.Days[d]
				if rep.Accesses != s.Accesses || rep.Hits != s.Hits() || rep.AllocWrites != s.AllocWrites || rep.Accesses == 0 {
					t.Errorf("day %d: store %d accesses, %d hits, %d allocation-writes; simulator %d, %d, %d",
						d, rep.Accesses, rep.Hits, rep.AllocWrites, s.Accesses, s.Hits(), s.AllocWrites)
				}
			}
		})
	}
}

func TestClock(t *testing.T) {
	clk := NewClock(replayBase())
	if !clk.Now().Equal(replayBase()) {
		t.Error("clock not anchored")
	}
	clk.Set(int64(90 * time.Minute))
	if got := clk.Now().Sub(replayBase()); got != 90*time.Minute {
		t.Errorf("clock = %v", got)
	}
}

func TestRunRotatesDaily(t *testing.T) {
	cfg := workload.Default(replayScale)
	cfg.Days = 3
	gen, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := NewClock(replayBase())
	st, err := core.Open(BuildBackend(cfg), core.Options{
		CacheBytes: 512 * 512,
		Variant:    core.VariantD,
		Epoch:      24 * time.Hour,
		Now:        clk.Now,
		SpillDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reports, err := Run(st, gen, clk, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	if reports[0].Hits != 0 {
		t.Error("day 0 should be the bootstrap day")
	}
	if reports[2].Hits == 0 {
		t.Error("no hits after two epochs; rotation broken?")
	}
	if st.Stats().Epochs < 3 {
		t.Errorf("epochs = %d, want ≥3", st.Stats().Epochs)
	}
	if reports[1].Moves == 0 && reports[2].Moves == 0 {
		t.Error("no epoch moves recorded")
	}
}

func TestBuildBackendCoversWorkload(t *testing.T) {
	cfg := workload.Default(replayScale)
	cfg.Days = 1
	gen, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	be := BuildBackend(cfg)
	reqs, err := gen.Day(0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	for i := range reqs {
		r := &reqs[i]
		if err := be.ReadAt(r.Server, r.Volume, buf[:r.Length], r.Offset); err != nil {
			t.Fatalf("request %d (%+v): %v", i, r, err)
		}
	}
}

func TestRunSurfacesBackendErrors(t *testing.T) {
	cfg := workload.Default(replayScale)
	cfg.Days = 1
	gen, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clk := NewClock(replayBase())
	faulty := store.NewFaulty(BuildBackend(cfg))
	st, err := core.Open(faulty, core.Options{CacheBytes: 64 * 512, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	faulty.FailAfter(50)
	_, err = Run(st, gen, clk, false)
	if err == nil {
		t.Fatal("injected backend fault not surfaced")
	}
	if !strings.Contains(err.Error(), "replay: day 0 request") {
		t.Errorf("error lacks context: %v", err)
	}
}

func TestDayReportHitRatio(t *testing.T) {
	r := DayReport{Accesses: 100, Hits: 25}
	if r.HitRatio() != 0.25 {
		t.Errorf("ratio = %v", r.HitRatio())
	}
	if (DayReport{}).HitRatio() != 0 {
		t.Error("empty day ratio")
	}
}

// ExampleRun replays four days of the synthetic ensemble through a
// SieveStore-D store whose clock follows trace time, so its epochs rotate
// at midnight as in the paper, and prints a Figure 5-style day table. The
// blocks a day's log selects move in at the next midnight and serve hits
// from then on; moves are SieveStore-D's only allocation-writes.
func ExampleRun() {
	const scale = 65536
	cfg := workload.Default(scale)
	cfg.Days = 4
	gen, err := workload.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	clk := NewClock(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC))
	st, err := core.Open(BuildBackend(cfg), core.Options{
		CacheBytes: 16 << 30 / scale, // the paper's 16 GB at this scale
		Variant:    core.VariantD,
		Epoch:      24 * time.Hour,
		Now:        clk.Now,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	reports, err := Run(st, gen, clk, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-4s %9s %9s %6s %7s\n", "day", "requests", "blocks", "hit%", "moves")
	for _, r := range reports {
		fmt.Printf("%-4d %9d %9d %6.2f %7d\n", r.Day, r.Requests, r.Accesses, 100*r.HitRatio(), r.Moves)
	}
	// Output:
	// day   requests    blocks   hit%   moves
	// 0         2287     18423   0.00      52
	// 1         7836     61505   2.03     460
	// 2         8547     66938  13.99     119
	// 3         8377     65960  14.95      82
}
