package sim

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/block"
	"repro/internal/sieve"
	"repro/internal/trace"
)

// hotColdTrace builds a 2-day trace where block 0 is accessed `hot` times
// per day and blocks 1..cold are accessed once each per day.
func hotColdTrace(hot, cold int) Trace {
	day := func(d int) []block.Request {
		base := int64(d) * trace.Day
		var reqs []block.Request
		for i := 0; i < hot; i++ {
			reqs = append(reqs, block.Request{
				Time: base + int64(i+1)*int64(trace.Minute), Kind: block.Read,
				Offset: 0, Length: block.Size,
			})
		}
		for i := 1; i <= cold; i++ {
			reqs = append(reqs, block.Request{
				Time: base + int64(i)*int64(trace.Minute) + 500, Kind: block.Read,
				Offset: uint64(i) * block.Size, Length: block.Size,
			})
		}
		trace.SortByTime(reqs)
		return reqs
	}
	return NewSliceTrace(day(0), day(1))
}

// dayCounters builds one access counter per day of tr.
func dayCounters(t *testing.T, tr Trace) []*analysis.Counter {
	t.Helper()
	out := make([]*analysis.Counter, tr.Days())
	for d := range out {
		out[d] = analysis.NewCounter()
		reqs, err := tr.Day(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			out[d].AddRequest(&reqs[i])
		}
	}
	return out
}

// topSets is each day's top frac of blocks by access count.
func topSets(counters []*analysis.Counter, frac float64) [][]block.Key {
	sets := make([][]block.Key, len(counters))
	for d, c := range counters {
		sets[d] = c.TopFraction(frac)
	}
	return sets
}

func TestDayCountersAndTopSets(t *testing.T) {
	counters := dayCounters(t, hotColdTrace(50, 99))
	if len(counters) != 2 {
		t.Fatal("want 2 days")
	}
	if counters[0].Total() != 149 || counters[0].Unique() != 100 {
		t.Errorf("day0: total=%d unique=%d", counters[0].Total(), counters[0].Unique())
	}
	sets := topSets(counters, 0.01)
	if len(sets[0]) != 1 || sets[0][0] != block.MakeKey(0, 0, 0) {
		t.Errorf("top set = %v", sets[0])
	}
}

func TestRunIdealCapturesHotBlock(t *testing.T) {
	tr := hotColdTrace(50, 99)
	// Ideal is a Discrete cache whose epoch set is each day's own top 1%.
	res := runDiscrete(t, tr, 1000, topSets(dayCounters(t, tr), 0.01))
	for d := 0; d < 2; d++ {
		if got := res.Days[d].Hits(); got != 50 {
			t.Errorf("day %d hits = %d, want 50", d, got)
		}
	}
	// Ideal allocates its set at each day's start: day 0 moves the hot
	// block in; day 1 keeps it (same top set).
	if res.Days[0].Moves != 1 || res.Days[1].Moves != 0 {
		t.Errorf("moves = %d,%d", res.Days[0].Moves, res.Days[1].Moves)
	}
}

func TestRunContinuousSieveCCatchesHotBlock(t *testing.T) {
	tr := hotColdTrace(200, 99)
	policy, err := sieve.NewC(sieve.DefaultCConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContinuous(tr, 1000, policy)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Total()
	// The hot block allocates after ~12 misses and hits thereafter:
	// ≥ 380 of 400 hot accesses over two days.
	if total.Hits() < 380 {
		t.Errorf("hits = %d, want most hot accesses", total.Hits())
	}
	// Cold blocks never allocate: allocation-writes stay tiny.
	if total.AllocWrites > 3 {
		t.Errorf("alloc-writes = %d, want ≤3", total.AllocWrites)
	}
}

func TestPerServerConfigurations(t *testing.T) {
	// Two servers: server 0 hot block with 90 accesses; server 1 only cold
	// singletons. A shared static cache beats an equally-split static one.
	day := func(d int) []block.Request {
		base := int64(d) * trace.Day
		var reqs []block.Request
		for i := 0; i < 90; i++ {
			reqs = append(reqs, block.Request{Time: base + int64(i), Server: 0, Kind: block.Read, Offset: 0, Length: block.Size})
		}
		for i := 1; i <= 30; i++ {
			reqs = append(reqs, block.Request{Time: base + int64(i), Server: 1, Kind: block.Read, Offset: uint64(i) * block.Size, Length: block.Size})
		}
		// A second warm block on server 0.
		for i := 0; i < 10; i++ {
			reqs = append(reqs, block.Request{Time: base + int64(i), Server: 0, Kind: block.Read, Offset: 512, Length: block.Size})
		}
		trace.SortByTime(reqs)
		return reqs
	}
	tr := NewSliceTrace(day(0))
	perServer := perServerDayCounters(t, tr, 2)
	counter := analysis.NewCounter()
	if err := eachRequest(tr, func(req *block.Request) error { counter.AddRequest(req); return nil }); err != nil {
		t.Fatal(err)
	}
	// Elastic per-server top-50%: server 0 keeps its hot block (of 2
	// unique), server 1 keeps 15 singletons.
	elastic := PerServerTopFraction(perServer, 0.5)
	if elastic[0].Hits != 90+15 {
		t.Errorf("elastic hits = %d, want 105", elastic[0].Hits)
	}
	if elastic[0].Accesses != 130 {
		t.Errorf("accesses = %d", elastic[0].Accesses)
	}
	// Static split, 1 block each: server 0 captures 90, server 1 captures 1.
	static := PerServerStatic(perServer, 1)
	if static[0].Hits != 91 {
		t.Errorf("static hits = %d, want 91", static[0].Hits)
	}
	// Shared ensemble cache of the same total (2 blocks) takes the two
	// hottest blocks overall: 90 + 10.
	shared := EnsembleStatic([]*analysis.Counter{counter}, 2)
	if shared[0].Hits != 100 {
		t.Errorf("shared hits = %d, want 100", shared[0].Hits)
	}
	if shared[0].Hits <= static[0].Hits {
		t.Error("ensemble sharing should beat static partitioning here")
	}
	if got := shared[0].HitRatio(); got < 0.76 || got > 0.78 {
		t.Errorf("shared ratio = %v", got)
	}
}

func TestPerServerTopFractionUsesOwnBlocksOnly(t *testing.T) {
	// All load on server 0; server 1 idle. Elastic per-server caching can
	// still capture server 0's hot set (its own top 1%), but the static
	// split wastes server 1's capacity.
	day0 := []block.Request{}
	for i := 0; i < 200; i++ {
		day0 = append(day0, block.Request{Time: int64(i), Server: 0, Kind: block.Read, Offset: 0, Length: block.Size})
	}
	for i := 1; i <= 99; i++ {
		day0 = append(day0, block.Request{Time: int64(i), Server: 0, Kind: block.Read, Offset: uint64(i) * block.Size, Length: block.Size})
	}
	trace.SortByTime(day0)
	tr := NewSliceTrace(day0)
	perServer := perServerDayCounters(t, tr, 2)
	elastic := PerServerTopFraction(perServer, 0.01)
	if elastic[0].Hits != 200 {
		t.Errorf("elastic hits = %d", elastic[0].Hits)
	}
	if elastic[0].CapacityBlocks != 1 {
		t.Errorf("capacity = %d blocks, want 1 (idle server uses none)", elastic[0].CapacityBlocks)
	}
}

// perServerDayCounters builds per-day, per-server access counters.
func perServerDayCounters(t *testing.T, tr Trace, servers int) [][]*analysis.Counter {
	t.Helper()
	out := make([][]*analysis.Counter, tr.Days())
	for d := range out {
		out[d] = make([]*analysis.Counter, servers)
		for s := range out[d] {
			out[d][s] = analysis.NewCounter()
		}
		reqs, err := tr.Day(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			out[d][reqs[i].Server].AddRequest(&reqs[i])
		}
	}
	return out
}
