package trace

import (
	"cmp"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/block"
)

func req(t int64, server, volume int, kind block.Kind, offset uint64, length uint32) block.Request {
	return block.Request{Time: t, Server: server, Volume: volume, Kind: kind, Offset: offset, Length: length}
}

func TestDayAndMinuteOf(t *testing.T) {
	if DayOf(0) != 0 {
		t.Error("DayOf(0)")
	}
	if DayOf(Day-1) != 0 || DayOf(Day) != 1 || DayOf(3*Day+5) != 3 {
		t.Error("DayOf boundaries wrong")
	}
	if MinuteOf(Minute-1) != 0 || MinuteOf(Minute) != 1 {
		t.Error("MinuteOf boundaries wrong")
	}
	if MinuteOf(Day) != 24*60 {
		t.Errorf("MinuteOf(Day) = %d", MinuteOf(Day))
	}
}

func TestSliceReader(t *testing.T) {
	reqs := []block.Request{req(1, 0, 0, block.Read, 0, 512), req(2, 1, 0, block.Write, 512, 512)}
	r := NewSliceReader(reqs)
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != reqs[0] || got[1] != reqs[1] {
		t.Errorf("Collect = %v", got)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
	r.Reset()
	if first, err := r.Next(); err != nil || first != reqs[0] {
		t.Errorf("after Reset: %v %v", first, err)
	}
}

func TestMergePreservesTimeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var streams [][]block.Request
	total := 0
	for s := 0; s < 5; s++ {
		var reqs []block.Request
		tm := int64(0)
		n := rng.Intn(50)
		for i := 0; i < n; i++ {
			tm += int64(rng.Intn(1000))
			reqs = append(reqs, req(tm, s, 0, block.Read, uint64(i)*512, 512))
		}
		total += n
		streams = append(streams, reqs)
	}
	readers := make([]Reader, len(streams))
	for i, s := range streams {
		readers[i] = NewSliceReader(s)
	}
	merged, err := Collect(Merge(readers...))
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != total {
		t.Fatalf("merged %d records, want %d", len(merged), total)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Time < merged[i-1].Time {
			t.Fatalf("merge violated time order at %d: %d < %d", i, merged[i].Time, merged[i-1].Time)
		}
	}
}

// TestMergeTiesFollowInputOrder checks that Merge equals a stable sort of
// its inputs' concatenation, on streams with heavy ties.
func TestMergeTiesFollowInputOrder(t *testing.T) {
	a := []block.Request{req(5, 0, 0, block.Read, 0, 512)}
	b := []block.Request{req(1, 1, 0, block.Read, 0, 512), req(5, 1, 0, block.Read, 512, 512)}
	got, err := Collect(Merge(NewSliceReader(a), NewSliceReader(b)))
	if err != nil {
		t.Fatal(err)
	}
	if want := []block.Request{b[0], a[0], b[1]}; !slices.Equal(got, want) {
		t.Fatalf("Merge(A=[5], B=[1,5]) = %v, want B1 A5 B5", got)
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var readers []Reader
		var all []block.Request
		for s := rng.Intn(6); s >= 0; s-- {
			stream := make([]block.Request, rng.Intn(40))
			for i := range stream {
				stream[i] = req(int64(rng.Intn(8)), s, 0, block.Read, uint64(len(all)+i)*512, 512)
			}
			SortByTime(stream)
			readers = append(readers, NewSliceReader(stream))
			all = append(all, stream...)
		}
		got, err := Collect(Merge(readers...))
		if err != nil {
			t.Fatal(err)
		}
		SortByTime(all)
		if !slices.Equal(got, all) {
			t.Fatalf("trial %d: Merge = %v\nwant %v", trial, got, all)
		}
	}
}

func TestMergeEmpty(t *testing.T) {
	if got, err := Collect(Merge()); err != nil || len(got) != 0 {
		t.Errorf("Merge() = %v, %v", got, err)
	}
	if got, err := Collect(Merge(NewSliceReader(nil), NewSliceReader(nil))); err != nil || len(got) != 0 {
		t.Errorf("Merge(empty,empty) = %v, %v", got, err)
	}
}

func TestExpandSingleBlock(t *testing.T) {
	r := req(100, 2, 1, block.Write, 1024, 512)
	r.Duration = 50
	accs := Expand(nil, &r)
	if len(accs) != 1 {
		t.Fatalf("len = %d", len(accs))
	}
	if accs[0].Key != block.MakeKey(2, 1, 2) || accs[0].Kind != block.Write {
		t.Errorf("access = %+v", accs[0])
	}
	if accs[0].Time != 150 {
		t.Errorf("single-block completion time = %d, want 150", accs[0].Time)
	}
}

func TestExpandMultiBlockInterpolation(t *testing.T) {
	r := req(1000, 0, 0, block.Read, 0, 4*512)
	r.Duration = 400
	accs := Expand(nil, &r)
	if len(accs) != 4 {
		t.Fatalf("len = %d", len(accs))
	}
	wantTimes := []int64{1100, 1200, 1300, 1400}
	for i, a := range accs {
		if a.Time != wantTimes[i] {
			t.Errorf("block %d time = %d, want %d", i, a.Time, wantTimes[i])
		}
		if a.Key.Number() != uint64(i) {
			t.Errorf("block %d key = %v", i, a.Key)
		}
	}
}

func TestExpandProperty(t *testing.T) {
	// Last block completes exactly at issue+duration; times non-decreasing;
	// count matches Request.Blocks.
	f := func(off uint32, length uint16, dur uint16) bool {
		r := block.Request{Time: 10_000, Duration: int64(dur), Offset: uint64(off), Length: uint32(length)}
		accs := Expand(nil, &r)
		if len(accs) != r.Blocks() {
			return false
		}
		prev := int64(0)
		for _, a := range accs {
			if a.Time < prev {
				return false
			}
			prev = a.Time
		}
		return accs[len(accs)-1].Time == r.Time+r.Duration
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExpandTimesMatchDivision checks Expand's stepped times against block
// i of n at Time + Duration*(i+1)/n on random and edge-case durations and
// block counts, both signs, wherever Duration*n does not overflow.
func TestExpandTimesMatchDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(n int, dur int64) {
		r := block.Request{Time: rng.Int63n(1 << 50), Duration: dur, Offset: uint64(rng.Intn(1<<20)) * block.Size, Length: uint32(n * block.Size)}
		for i, a := range Expand(nil, &r) {
			if want := r.Time + r.Duration*int64(i+1)/int64(n); a.Time != want {
				t.Fatalf("duration %d over %d blocks: block %d at %d, want %d", dur, n, i, a.Time, want)
			}
		}
	}
	for _, n := range []int{1, 2, 3, 7, 8, 9, 64, 255, 1 << 16} {
		big := math.MaxInt64 / int64(n)
		for _, dur := range []int64{0, 1, 2, int64(n) - 1, int64(n), int64(n) + 1, 3*int64(n) - 1, 1e9, big - 1, big} {
			check(n, dur)
			check(n, -dur)
		}
	}
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(300)
		dur := rng.Int63n(math.MaxInt64 / int64(n))
		if i%4 == 0 {
			dur = rng.Int63n(4 * int64(n))
		}
		if i%2 == 0 {
			dur = -dur
		}
		check(n, dur)
	}
}

func TestSortByTimeStable(t *testing.T) {
	reqs := []block.Request{
		req(5, 0, 0, block.Read, 0, 512),
		req(1, 1, 0, block.Read, 0, 512),
		req(5, 2, 0, block.Read, 0, 512),
	}
	SortByTime(reqs)
	if reqs[0].Server != 1 || reqs[1].Server != 0 || reqs[2].Server != 2 {
		t.Errorf("sort not stable/correct: %+v", reqs)
	}
}

// TestSortByTimeDigitWidths checks SortByTime against a stable comparator
// sort on both sides of StableOrder's 2^16-key switch from 8- to 16-bit
// digits, with heavy ties and spans from a day's to the whole int64 range.
func TestSortByTimeDigitWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{300, 1<<16 - 1, 1 << 16, 1<<16 + 300} {
		for _, span := range []int64{50, 86400e9, math.MaxInt64} {
			reqs := make([]block.Request, n)
			for i := range reqs {
				reqs[i] = block.Request{Time: rng.Int63n(span) - span/2, Offset: uint64(i)}
			}
			reqs[n/3].Time, reqs[n/2].Time = math.MinInt64, math.MaxInt64
			want := slices.Clone(reqs)
			slices.SortStableFunc(want, func(a, b block.Request) int { return cmp.Compare(a.Time, b.Time) })
			if SortByTime(reqs) || !slices.Equal(reqs, want) {
				t.Fatalf("n=%d span=%d: SortByTime differs from a stable sort", n, span)
			}
		}
	}
}

func TestSummarize(t *testing.T) {
	reqs := []block.Request{
		req(0, 0, 0, block.Read, 0, 1024),        // 2 blocks, server 0 vol 0
		req(10, 0, 1, block.Write, 0, 512),       // 1 block, server 0 vol 1
		req(20, 1, 0, block.Read, 0, 512),        // 1 block, server 1
		req(Day+5, 0, 0, block.Read, 512, 512),   // repeat of block 1
		req(Day+6, 1, 0, block.Write, 1024, 512), // new block server 1
	}
	st, err := Summarize(NewSliceReader(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 5 || st.BlockAccesses != 6 {
		t.Errorf("requests=%d accesses=%d", st.Requests, st.BlockAccesses)
	}
	if st.Reads != 4 || st.Writes != 2 {
		t.Errorf("reads=%d writes=%d", st.Reads, st.Writes)
	}
	if st.UniqueBlocks != 5 {
		t.Errorf("unique=%d, want 5", st.UniqueBlocks)
	}
	if st.Days != 2 {
		t.Errorf("days=%d", st.Days)
	}
	s0 := st.Servers[0]
	if s0.VolumeCount() != 2 || s0.UniqueBlocks != 3 || s0.BlockAccesses != 4 {
		t.Errorf("server0 = %+v", s0)
	}
	s1 := st.Servers[1]
	if s1.VolumeCount() != 1 || s1.UniqueBlocks != 2 {
		t.Errorf("server1 = %+v", s1)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st, err := Summarize(NewSliceReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 0 || st.Days != 0 || st.UniqueBlocks != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}
