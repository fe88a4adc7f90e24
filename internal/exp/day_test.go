package exp

import (
	"testing"

	"repro/internal/block"
	"repro/internal/trace"
)

// hotColdDays builds a 2-day trace where block 0 is accessed hot times per
// day and blocks 1..cold are accessed once each per day.
func hotColdDays(hot, cold int) [][]block.Request {
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
	return [][]block.Request{day(0), day(1)}
}

// runDays feeds days through Run's per-day step over a 1 024-block cache
// and returns each day's ideal set and the finished results.
func runDays(t *testing.T, days [][]block.Request) ([][]block.Key, *Results) {
	t.Helper()
	r, err := newRun(DefaultConfig(1<<15), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.logger.Close() })
	var ideal [][]block.Key
	for d, reqs := range days {
		if err := r.day(d, reqs); err != nil {
			t.Fatal(err)
		}
		ideal = append(ideal, r.sets[0])
	}
	return ideal, r.finish(len(days))
}

func TestRunIdealCapturesHotBlock(t *testing.T) {
	t.Parallel()
	sets, res := runDays(t, hotColdDays(50, 99))
	// Each day's counter sees 149 accesses to 100 blocks, and its top 1%
	// is the hot block alone.
	if len(res.DayInfo) != 2 {
		t.Fatal("want 2 days")
	}
	if di := res.DayInfo[0]; di.Accesses != 149 || di.Unique != 100 {
		t.Errorf("day0: total=%d unique=%d", di.Accesses, di.Unique)
	}
	if len(sets[0]) != 1 || sets[0][0] != block.MakeKey(0, 0, 0) {
		t.Errorf("top set = %v", sets[0])
	}
	ideal := res.Policies[PIdeal]
	for d := 0; d < 2; d++ {
		if got := ideal.Days[d].Hits(); got != 50 {
			t.Errorf("day %d hits = %d, want 50", d, got)
		}
	}
	// Ideal allocates its set at each day's start: day 0 moves the hot
	// block in; day 1 keeps it (same top set).
	if ideal.Days[0].Moves != 1 || ideal.Days[1].Moves != 0 {
		t.Errorf("moves = %d,%d", ideal.Days[0].Moves, ideal.Days[1].Moves)
	}
}

func TestRunSieveStoreD(t *testing.T) {
	t.Parallel()
	_, res := runDays(t, hotColdDays(50, 99))
	d := res.Policies[PSieveD]
	// Day 0: bootstrap, zero hits. Day 1: the hot block (50 accesses ≥ 10)
	// was selected; cold blocks (1 access) were not.
	if d.Days[0].Hits() != 0 {
		t.Errorf("day0 hits = %d", d.Days[0].Hits())
	}
	if d.Days[1].Hits() != 50 {
		t.Errorf("day1 hits = %d, want 50", d.Days[1].Hits())
	}
	if d.Days[1].Moves != 1 {
		t.Errorf("day1 moves = %d, want 1", d.Days[1].Moves)
	}
}

func TestRunRandBlkD(t *testing.T) {
	t.Parallel()
	_, res := runDays(t, hotColdDays(50, 99))
	r := res.Policies[PRandBlkD]
	// Day 1 allocates one random block of day 0's 100: hits are either 50
	// (lucky: picked the hot block) or 1 (a cold block).
	got := r.Days[1].Hits()
	if got != 50 && got != 1 {
		t.Errorf("day1 hits = %d, want 50 or 1", got)
	}
	if r.Days[0].Hits() != 0 {
		t.Errorf("day0 should be empty")
	}
}
