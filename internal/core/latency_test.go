package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/store"
)

// latencyStore opens a store over one 1 MiB volume (server 0, volume 0)
// with a sieve that admits every block on its first miss, tracking latency
// as trackLatency says.
func latencyStore(t *testing.T, shards, traceSample int, trackLatency bool) *Store {
	t.Helper()
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<20)
	s, err := Open(be, Options{CacheBytes: 512 * block.Size, Shards: shards, TrackLatency: trackLatency,
		TraceSample: traceSample, SieveC: smallSieve()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// opCount is what a store's latency accounting should show.
type opCount struct{ reads, readErrs, writes, writeErrs int64 }

// call makes one call and counts it in want.
func (want *opCount) call(t *testing.T, s *Store, write bool, volume, n int, off uint64) {
	t.Helper()
	p := make([]byte, n)
	var err error
	if write {
		err, want.writes = s.WriteAt(0, volume, p, off), want.writes+1
	} else {
		err, want.reads = s.ReadAt(0, volume, p, off), want.reads+1
	}
	if err == nil {
		return
	}
	if write {
		want.writeErrs++
	} else {
		want.readErrs++
	}
}

// check compares the store's ReadOps, ReadErrors, WriteOps and WriteErrors
// with want.
func (want opCount) check(t *testing.T, s *Store, when string) {
	t.Helper()
	st := s.Stats()
	got := opCount{st.ReadOps, st.ReadErrors, st.WriteOps, st.WriteErrors}
	if got != want {
		t.Errorf("%s: ops/errors (reads, read errors, writes, write errors) = %+v, want %+v", when, got, want)
	}
}

// TestLatencyCountsEveryCall checks that Stats counts each ReadAt and
// WriteAt call once, though only one in latencySample is timed: a call within
// one page, a 64 KiB call whose sixteen pages span shards, a call the
// backend fails (volume 1 does not exist), calls from four goroutines at
// once, and calls refused at the closed gate after Close. A call refused
// for its geometry is not counted, as before sampling. The counts are the
// same with latency tracking off.
func TestLatencyCountsEveryCall(t *testing.T) {
	for _, c := range []struct {
		shards int
		track  bool
	}{{1, true}, {8, true}, {8, false}} {
		s := latencyStore(t, c.shards, 0, c.track)
		var want opCount
		for i := range 64 {
			off := uint64(i%16) * block.PageSize
			want.call(t, s, i%4 == 0, 0, block.PageSize, off)
			want.call(t, s, i%3 == 0, 0, block.Size, off+block.Size)
		}
		want.check(t, s, "single-page calls")
		for i := range 8 {
			want.call(t, s, i%2 == 0, 0, 64<<10, uint64(i)*64<<10)
		}
		want.call(t, s, false, 1, block.PageSize, 0)
		want.call(t, s, true, 1, block.PageSize, 0)
		if want.readErrs != 1 || want.writeErrs != 1 {
			t.Fatalf("calls on a missing volume did not fail: %+v", want)
		}
		if err := s.ReadAt(0, 0, make([]byte, 100), 0); err != ErrAlignment {
			t.Fatalf("misaligned read: %v, want ErrAlignment", err)
		}
		want.check(t, s, "64 KiB and failed calls")

		var wg sync.WaitGroup
		counts := make([]opCount, 4)
		for g := range counts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 500 {
					off := uint64((g*500+i)%200) * block.PageSize
					counts[g].call(t, s, i%5 == 0, 0, block.PageSize*(1+i%3), off)
				}
			}()
		}
		wg.Wait()
		for _, c := range counts {
			want.reads, want.readErrs = want.reads+c.reads, want.readErrs+c.readErrs
			want.writes, want.writeErrs = want.writes+c.writes, want.writeErrs+c.writeErrs
		}
		want.check(t, s, "four concurrent callers")

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range 10 {
			want.call(t, s, i%2 == 0, 0, 64<<10, 0)
		}
		if want.readErrs != 6 || want.writeErrs != 6 {
			t.Fatalf("calls after Close did not fail: %+v", want)
		}
		want.check(t, s, fmt.Sprintf("%+v, after Close", c))
	}
}

// TestLatencySampleShare checks that a uniform one in latencySample of
// 100 000 hits is timed: the histograms' count lies within five standard
// deviations of the binomial mean.
func TestLatencySampleShare(t *testing.T) {
	const n, p = 100_000, 1.0 / latencySample
	s := latencyStore(t, 8, 0, true)
	buf := make([]byte, block.PageSize)
	for i := range n {
		if err := s.ReadAt(0, 0, buf, uint64(i%32)*block.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.ReadOps != n || st.ReadHits < (n-32)*block.BlocksPerPage {
		t.Fatalf("%d reads counted, %d blocks hit; want %d reads, all hits after the first 32", st.ReadOps, st.ReadHits, n)
	}
	rd, _ := s.LatencyHistograms()
	if sigma := math.Sqrt(n * p * (1 - p)); math.Abs(float64(rd.Count)-n*p) > 5*sigma {
		t.Errorf("%d of %d reads timed, want %.0f ± %.0f", rd.Count, n, n*p, 5*sigma)
	}
}

// TestLatencyTraceSampleOne checks that a traced call is always timed and
// observed: with TraceSample 1 the histograms hold every call, those
// refused at the closed gate included.
func TestLatencyTraceSampleOne(t *testing.T) {
	s := latencyStore(t, 8, 1, true)
	var want opCount
	for i := range 200 {
		want.call(t, s, i%3 == 0, 0, block.PageSize*(1+i%4), uint64(i%64)*block.PageSize)
	}
	s.Close()
	want.call(t, s, false, 0, block.PageSize, 0)
	want.call(t, s, true, 0, block.PageSize, 0)
	want.check(t, s, "TraceSample 1")
	st := s.Stats()
	rd, wr := s.LatencyHistograms()
	if rd.Count != st.ReadOps || wr.Count != st.WriteOps || rd.Max <= 0 || wr.Max <= 0 {
		t.Errorf("histogram counts %d/%d, max %d/%d; ops %d/%d: want every call observed",
			rd.Count, wr.Count, rd.Max, wr.Max, st.ReadOps, st.WriteOps)
	}
}
