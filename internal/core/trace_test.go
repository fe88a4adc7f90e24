package core

import (
	"sync"
	"testing"
)

func TestTraceRingSampling(t *testing.T) {
	// sampleEvery=1 samples everything without touching the counter.
	every := NewTraceRing(4, 1)
	for i := 0; i < 10; i++ {
		if !every.Sample() {
			t.Fatal("sampleEvery=1 must always sample")
		}
	}
	// sampleEvery=N samples exactly 1 in N.
	oneInFour := NewTraceRing(4, 4)
	sampled := 0
	for i := 0; i < 400; i++ {
		if oneInFour.Sample() {
			sampled++
		}
	}
	if sampled != 100 {
		t.Fatalf("sampled %d of 400, want 100", sampled)
	}
	// Degenerate constructor args clamp instead of panicking.
	r := NewTraceRing(0, 0)
	if !r.Sample() {
		t.Fatal("clamped ring must sample")
	}
	r.Record(OpTrace{Op: "read"})
	if len(r.Dump()) != 1 {
		t.Fatalf("clamped ring len = %d", len(r.Dump()))
	}
}

func TestTraceRingWrapAndOrder(t *testing.T) {
	r := NewTraceRing(4, 1)
	if got := r.Dump(); len(got) != 0 {
		t.Fatalf("empty ring dumped %d records", len(got))
	}
	for i := 0; i < 10; i++ {
		r.Record(OpTrace{Offset: uint64(i)})
	}
	if len(r.Dump()) != 4 {
		t.Fatalf("len = %d, want 4", len(r.Dump()))
	}
	got := r.Dump()
	if len(got) != 4 {
		t.Fatalf("dumped %d records", len(got))
	}
	// Newest first: offsets 9, 8, 7, 6; sequence numbers strictly decreasing.
	for i, rec := range got {
		if rec.Offset != uint64(9-i) {
			t.Errorf("record %d offset = %d, want %d", i, rec.Offset, 9-i)
		}
		if i > 0 && rec.Seq >= got[i-1].Seq {
			t.Errorf("seq not decreasing: %d then %d", got[i-1].Seq, rec.Seq)
		}
	}
	if got[0].Seq != 10 {
		t.Errorf("newest seq = %d, want 10", got[0].Seq)
	}
}

// TestTraceRingConcurrent records and dumps from many goroutines; the ring
// must stay internally consistent. Run under -race.
func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(64, 2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if r.Sample() {
					r.Record(OpTrace{Op: "read", Server: g, Offset: uint64(i)})
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			for _, rec := range r.Dump() {
				if rec.Op != "read" {
					t.Errorf("torn record: %+v", rec)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if len(r.Dump()) != 64 {
		t.Fatalf("len = %d, want 64", len(r.Dump()))
	}
	// Sequence numbers of the final dump are unique and contiguous-ish
	// (strictly decreasing from the newest).
	got := r.Dump()
	for i := 1; i < len(got); i++ {
		if got[i].Seq >= got[i-1].Seq {
			t.Fatalf("seq order broken at %d: %d then %d", i, got[i-1].Seq, got[i].Seq)
		}
	}
}
