package sim

import (
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/sieve"
	"repro/internal/trace"
)

func req(t int64, n uint64, kind block.Kind) block.Request {
	return block.Request{Time: t, Server: 0, Volume: 0, Kind: kind, Offset: n * block.Size, Length: block.Size}
}

func TestContinuousAODBasics(t *testing.T) {
	c := NewContinuous(cache.New(10), sieve.AOD{})
	// First access misses and allocates; second hits.
	c.Process(&[]block.Request{req(0, 1, block.Read)}[0])
	r2 := req(1000, 1, block.Read)
	c.Process(&r2)
	r3 := req(2000, 1, block.Write)
	c.Process(&r3)
	res := c.Result(0)
	d := res.Days[0]
	if d.Accesses != 3 || d.ReadHits != 1 || d.WriteHits != 1 || d.AllocWrites != 1 {
		t.Errorf("day0 = %+v", d)
	}
	if d.Reads != 2 || d.Writes != 1 {
		t.Errorf("kind split wrong: %+v", d)
	}
	if got := d.HitRatio(); got < 0.66 || got > 0.67 {
		t.Errorf("hit ratio = %v", got)
	}
	if d.SSDWrites() != 2 || d.SSDOps() != 3 {
		t.Errorf("ssd ops wrong: %+v", d)
	}
}

func TestContinuousWMNADoesNotAllocateWriteMiss(t *testing.T) {
	c := NewContinuous(cache.New(10), sieve.WMNA{})
	w := req(0, 1, block.Write)
	c.Process(&w)
	w2 := req(1000, 1, block.Write)
	c.Process(&w2)
	res := c.Result(0)
	d := res.Days[0]
	if d.AllocWrites != 0 || d.Hits() != 0 {
		t.Errorf("write misses should not allocate: %+v", d)
	}
	r := req(2000, 1, block.Read)
	c.Process(&r)
	r2 := req(3000, 1, block.Write)
	c.Process(&r2)
	d = c.Result(0).Days[0]
	if d.AllocWrites != 1 || d.WriteHits != 1 {
		t.Errorf("read miss should allocate: %+v", d)
	}
}

func TestContinuousEvictions(t *testing.T) {
	c := NewContinuous(cache.New(2), sieve.AOD{})
	for i := uint64(0); i < 5; i++ {
		r := req(int64(i)*1000, i, block.Read)
		c.Process(&r)
	}
	d := c.Result(0).Days[0]
	if d.Evictions != 3 || d.AllocWrites != 5 {
		t.Errorf("stats = %+v", d)
	}
}

func TestContinuousDaySplit(t *testing.T) {
	c := NewContinuous(cache.New(10), sieve.AOD{})
	r1 := req(0, 1, block.Read)
	r2 := req(trace.Day+5, 1, block.Read)
	c.Process(&r1)
	c.Process(&r2)
	res := c.Result(2 * 24 * 60)
	if len(res.Days) != 2 {
		t.Fatalf("days = %d", len(res.Days))
	}
	if res.Days[0].AllocWrites != 1 || res.Days[1].ReadHits != 1 {
		t.Errorf("days = %+v", res.Days)
	}
	if len(res.Minutes) != 2*24*60 {
		t.Errorf("minutes = %d", len(res.Minutes))
	}
	total := res.Total()
	if total.Accesses != 2 || total.Hits() != 1 {
		t.Errorf("total = %+v", total)
	}
}

func TestContinuousMinuteCharging(t *testing.T) {
	c := NewContinuous(cache.New(100), sieve.AOD{})
	// A 16-block (2-page) read miss at minute 3; allocation completes at
	// minute 4 (duration pushes completion across the boundary).
	r := block.Request{
		Time:     3 * trace.Minute,
		Duration: trace.Minute + 30*1e9,
		Server:   0, Volume: 0, Kind: block.Read,
		Offset: 0, Length: 16 * block.Size,
	}
	c.Process(&r)
	// A hit of 8 blocks (1 page) at minute 5.
	h := block.Request{Time: 5 * trace.Minute, Server: 0, Volume: 0, Kind: block.Read, Offset: 0, Length: 8 * block.Size}
	c.Process(&h)
	res := c.Result(10)
	if res.Minutes[4].WritePages != 2 {
		t.Errorf("alloc pages at minute 4 = %v", res.Minutes[4].WritePages)
	}
	if res.Minutes[5].ReadPages != 1 {
		t.Errorf("hit pages at minute 5 = %v", res.Minutes[5].ReadPages)
	}
	if res.Minutes[3].ReadPages != 0 || res.Minutes[3].WritePages != 0 {
		t.Errorf("minute 3 should be clean: %+v", res.Minutes[3])
	}
}

func TestPagesRoundsUp(t *testing.T) {
	cases := map[int64]float64{1: 1, 8: 1, 9: 2, 16: 2, 17: 3}
	for blocks, want := range cases {
		if got := pages(blocks); got != want {
			t.Errorf("pages(%d) = %v, want %v", blocks, got, want)
		}
	}
}

// runDiscrete runs tr through a discrete-epoch cache whose day-d resident
// set is sets[d].
func runDiscrete(t *testing.T, tr Trace, capacityBlocks int, sets [][]block.Key) *Result {
	t.Helper()
	d := NewDiscrete("test", capacityBlocks, func(day int) []block.Key { return sets[day] })
	if err := eachRequest(tr, d.Process); err != nil {
		t.Fatal(err)
	}
	return d.Result(tr.Days() * 24 * 60)
}

func TestDiscreteEpochSets(t *testing.T) {
	k := func(n uint64) block.Key { return block.MakeKey(0, 0, n) }
	day0 := []block.Request{req(10, 1, block.Read), req(20, 2, block.Read)}
	day1 := []block.Request{
		req(trace.Day+10, 1, block.Read),
		req(trace.Day+20, 1, block.Write),
		req(trace.Day+30, 2, block.Read),
	}
	res := runDiscrete(t, NewSliceTrace(day0, day1), 10, [][]block.Key{nil, {k(1)}})
	if res.Days[0].Hits() != 0 || res.Days[0].Moves != 0 {
		t.Errorf("day0 = %+v", res.Days[0])
	}
	d1 := res.Days[1]
	if d1.ReadHits != 1 || d1.WriteHits != 1 || d1.Moves != 1 {
		t.Errorf("day1 = %+v", d1)
	}
	// Block 2 was not in the epoch set: no allocation ever happens.
	if d1.AllocWrites != 0 || d1.Evictions != 0 {
		t.Errorf("discrete day1 side effects: %+v", d1)
	}
}

func TestDiscreteMovesCancelForRetainedBlocks(t *testing.T) {
	k := func(n uint64) block.Key { return block.MakeKey(0, 0, n) }
	day := func(d int) []block.Request {
		return []block.Request{req(int64(d)*trace.Day+5, 1, block.Read)}
	}
	res := runDiscrete(t, NewSliceTrace(day(0), day(1), day(2)), 10, [][]block.Key{{k(1), k(2)}, {k(1), k(2)}, {k(2), k(3)}})
	if res.Days[0].Moves != 2 {
		t.Errorf("day0 moves = %d", res.Days[0].Moves)
	}
	if res.Days[1].Moves != 0 {
		t.Errorf("day1 moves = %d, want 0 (set unchanged)", res.Days[1].Moves)
	}
	if res.Days[2].Moves != 1 {
		t.Errorf("day2 moves = %d, want 1 (only block 3 moves)", res.Days[2].Moves)
	}
}

func TestDiscreteRejectsOutOfOrderDays(t *testing.T) {
	d := NewDiscrete("test", 4, func(int) []block.Key { return nil })
	r1 := req(trace.Day+1, 1, block.Read)
	r0 := req(1, 1, block.Read)
	if err := d.Process(&r1); err != nil {
		t.Fatal(err)
	}
	if err := d.Process(&r0); err == nil {
		t.Error("want error for day regression")
	}
}

func TestDiscreteSkipsEmptyDays(t *testing.T) {
	calls := []int{}
	d := NewDiscrete("test", 4, func(day int) []block.Key {
		calls = append(calls, day)
		return nil
	})
	r := req(2*trace.Day+1, 1, block.Read)
	if err := d.Process(&r); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 || calls[0] != 0 || calls[2] != 2 {
		t.Errorf("beginDay calls = %v", calls)
	}
}

// recPolicy records each run it is offered and admits every miss.
type recPolicy struct {
	ts   []int64
	runs [][]block.Key
}

func (*recPolicy) Name() string { return "rec" }

func (r *recPolicy) AdmitRun(t int64, _ block.Kind, misses []block.Key, dst []int) []int {
	r.ts, r.runs = append(r.ts, t), append(r.runs, append([]block.Key(nil), misses...))
	return sieve.AOD{}.AdmitRun(t, block.Read, misses, dst)
}

// TestContinuousProbesBeforeAdmitting pins Process's call shape, the
// store's: every block of a request is probed first, so a hit later in the
// request is not evicted by an earlier block's allocation, and the misses
// reach the policy as one run, in block order, at the request's issue time
// however long the request takes.
func TestContinuousProbesBeforeAdmitting(t *testing.T) {
	p := &recPolicy{}
	c := NewContinuous(cache.New(2), p)
	for i := uint64(1); i <= 2; i++ { // block 1 is the LRU tail, 2 the head
		r := req(int64(i), i, block.Read)
		c.Process(&r)
	}
	r := block.Request{Time: 10, Duration: 5 * trace.Minute, Kind: block.Read, Offset: 0, Length: 2 * block.Size}
	c.Process(&r) // block 0 misses, block 1 hits, and 0 evicts 2
	if d := c.Result(0).Days[0]; d.ReadHits != 1 || d.AllocWrites != 3 || d.Evictions != 1 {
		t.Errorf("day 0 = %+v, want 1 hit, 3 allocation-writes, 1 eviction", d)
	}
	r = block.Request{Time: 20, Kind: block.Write, Offset: 5 * block.Size, Length: 3 * block.Size}
	c.Process(&r)
	k := block.MakeKey(0, 0, 0)
	if want := [][]block.Key{{k + 1}, {k + 2}, {k}, {k + 5, k + 6, k + 7}}; !reflect.DeepEqual(p.runs, want) || !reflect.DeepEqual(p.ts, []int64{1, 2, 10, 20}) {
		t.Errorf("runs %v at %v, want %v at [1 2 10 20]", p.runs, p.ts, want)
	}
}
