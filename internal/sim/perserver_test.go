package sim

import (
	"testing"

	"repro/internal/block"
	"repro/internal/sieve"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// skewedTwoServerTrace: server 0 has a hot block; server 1 only one-shots.
// The shared cache can dedicate all frames to server 0's hot set; the
// private split wastes server 1's half — the core §5.3 effect.
func skewedTwoServerTrace(hotBlocks int) Trace {
	day := func(d int) []block.Request {
		base := int64(d) * trace.Day
		var reqs []block.Request
		for h := 0; h < hotBlocks; h++ {
			for i := 0; i < 40; i++ {
				reqs = append(reqs, block.Request{
					Time:   base + int64(i)*int64(trace.Minute) + int64(h),
					Server: 0, Kind: block.Read,
					Offset: uint64(h) * block.Size, Length: block.Size,
				})
			}
		}
		for i := 0; i < 200; i++ {
			reqs = append(reqs, block.Request{
				Time:   base + int64(i)*int64(trace.Minute) + 777,
				Server: 1, Kind: block.Read,
				Offset: uint64(1000+400*d+i) * block.Size, Length: block.Size,
			})
		}
		trace.SortByTime(reqs)
		return reqs
	}
	return NewSliceTrace(day(0), day(1))
}

func aodFactory(int) (sieve.Policy, error) { return sieve.AOD{}, nil }

func TestRunPerServerContinuous(t *testing.T) {
	tr := skewedTwoServerTrace(8)
	p, err := NewPerServer(2, 12, aodFactory)
	if err != nil {
		t.Fatal(err)
	}
	if err := eachRequest(tr, p.Process); err != nil {
		t.Fatal(err)
	}
	combined, perServer := p.Result(tr.Days() * 24 * 60)
	if len(perServer) != 2 {
		t.Fatalf("per-server results: %d", len(perServer))
	}
	// Server 0's 6-block private cache cannot hold its 8 hot blocks: a
	// round-robin scan over 8 blocks through a 6-frame LRU thrashes to
	// zero hits. The 12-frame shared cache holds all 8 with slack for the
	// cold churn.
	shared, err := RunContinuous(tr, 12, sieve.AOD{})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Total().Hits() <= combined.Total().Hits() {
		t.Errorf("shared cache (%d hits) should beat private split (%d hits)",
			shared.Total().Hits(), combined.Total().Hits())
	}
	// The combined result must exactly sum the per-server ones.
	var sum int64
	for _, r := range perServer {
		sum += r.Total().Accesses
	}
	if combined.Total().Accesses != sum {
		t.Errorf("combined accesses %d != sum %d", combined.Total().Accesses, sum)
	}
	if combined.Total().Accesses != shared.Total().Accesses {
		t.Errorf("configurations saw different streams: %d vs %d",
			combined.Total().Accesses, shared.Total().Accesses)
	}
}

func TestRunPerServerContinuousValidation(t *testing.T) {
	if _, err := NewPerServer(0, 8, aodFactory); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := NewPerServer(16, 8, aodFactory); err == nil {
		t.Error("capacity smaller than server count accepted")
	}
	// Requests from servers beyond the configured count must be rejected.
	p, err := NewPerServer(1, 8, aodFactory)
	if err != nil {
		t.Fatal(err)
	}
	if err := eachRequest(skewedTwoServerTrace(2), p.Process); err == nil {
		t.Error("unknown-server request accepted")
	}
}

func TestRunPerServerContinuousEmptyTrace(t *testing.T) {
	// A one-day trace with no requests (a day directory whose only day
	// file is empty) has no day rows to combine.
	p, err := NewPerServer(13, 1300, aodFactory)
	if err != nil {
		t.Fatal(err)
	}
	combined, perServer := p.Result(24 * 60)
	if len(perServer) != 13 || len(combined.Days) != 0 || len(combined.Minutes) != 24*60 {
		t.Errorf("combined %d day rows, %d minutes over %d servers", len(combined.Days), len(combined.Minutes), len(perServer))
	}
}

func TestCombineResultsMinuteLoads(t *testing.T) {
	a := &Result{Name: "a", Days: []DayStats{{Day: 0, Accesses: 10, ReadHits: 5, Reads: 10}},
		Minutes: []ssd.MinuteLoad{{Minute: 0, ReadPages: 3}}}
	b := &Result{Name: "b", Days: []DayStats{{Day: 0, Accesses: 20, ReadHits: 2, Reads: 20}},
		Minutes: []ssd.MinuteLoad{{Minute: 0, ReadPages: 1, WritePages: 4}, {Minute: 1, WritePages: 2}}}
	c := CombineResults("both", 3, []*Result{a, b})
	if c.Total().Accesses != 30 || c.Total().ReadHits != 7 {
		t.Errorf("combined day stats: %+v", c.Total())
	}
	if len(c.Minutes) != 3 {
		t.Fatalf("minutes = %d", len(c.Minutes))
	}
	if c.Minutes[0].ReadPages != 4 || c.Minutes[0].WritePages != 4 || c.Minutes[1].WritePages != 2 {
		t.Errorf("minute merge wrong: %+v", c.Minutes[:2])
	}
}

func TestPerServerDriveNeeds(t *testing.T) {
	spec := ssd.IntelX25E()
	// Two idle private caches still need two physical drives.
	idle := []*Result{
		{Minutes: []ssd.MinuteLoad{{Minute: 0}}},
		{Minutes: []ssd.MinuteLoad{{Minute: 0}}},
	}
	if got := PerServerDriveNeeds(&spec, idle, 0.999); got != 2 {
		t.Errorf("idle drives = %d, want 2", got)
	}
	// One server needing 2 drives plus one idle = 3 total.
	hot := []*Result{
		{Minutes: []ssd.MinuteLoad{{Minute: 0, ReadPages: 35000 * 61}}},
		{Minutes: []ssd.MinuteLoad{{Minute: 0}}},
	}
	if got := PerServerDriveNeeds(&spec, hot, 1.0); got != 3 {
		t.Errorf("hot drives = %d, want 3", got)
	}
}
