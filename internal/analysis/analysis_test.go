package analysis

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/block"
)

func key(n uint64) block.Key { return block.MakeKey(0, 0, n) }

// fill records block i exactly counts[i] times.
func fill(c *Counter, counts ...int) {
	for i, n := range counts {
		for j := 0; j < n; j++ {
			c.Add(key(uint64(i)))
		}
	}
}

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	fill(c, 5, 1, 3)
	if c.Total() != 9 || c.Unique() != 3 {
		t.Fatalf("total=%d unique=%d", c.Total(), c.Unique())
	}
	if c.Count(key(0)) != 5 || c.Count(key(99)) != 0 {
		t.Error("Count wrong")
	}
	got := c.SortedCounts()
	want := []int64{5, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedCounts = %v", got)
		}
	}
}

func TestAddRequestExpandsBlocks(t *testing.T) {
	c := NewCounter()
	req := block.Request{Server: 1, Volume: 2, Offset: 1024, Length: 1536}
	c.AddRequest(&req)
	if c.Total() != 3 || c.Unique() != 3 {
		t.Fatalf("total=%d unique=%d", c.Total(), c.Unique())
	}
	if c.Count(block.MakeKey(1, 2, 2)) != 1 || c.Count(block.MakeKey(1, 2, 4)) != 1 {
		t.Error("wrong blocks counted")
	}
}

func TestTopFractionAndShare(t *testing.T) {
	c := NewCounter()
	// 100 blocks: block 0 has 100 accesses, the rest 1 each.
	counts := make([]int, 100)
	counts[0] = 100
	for i := 1; i < 100; i++ {
		counts[i] = 1
	}
	fill(c, counts...)
	top := c.TopFraction(0.01)
	if len(top) != 1 || top[0] != key(0) {
		t.Fatalf("TopFraction = %v", top)
	}
	if got := c.TopShare(0.01); math.Abs(got-100.0/199.0) > 1e-9 {
		t.Errorf("TopShare(1%%) = %v", got)
	}
	if got := c.TopShare(1.0); got != 1 {
		t.Errorf("TopShare(100%%) = %v", got)
	}
	if got := c.CountLE(1); math.Abs(got-0.99) > 1e-9 {
		t.Errorf("CountLE(1) = %v", got)
	}
	if got := c.CountLE(100); got != 1 {
		t.Errorf("CountLE(100) = %v", got)
	}
}

func TestTopFractionDeterministicTies(t *testing.T) {
	// All equal counts: top set must still be deterministic (key order).
	c1, c2 := NewCounter(), NewCounter()
	for i := 9; i >= 0; i-- {
		c1.Add(key(uint64(i)))
	}
	for i := 0; i < 10; i++ {
		c2.Add(key(uint64(i)))
	}
	a, b := c1.TopFraction(0.3), c2.TopFraction(0.3)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("sizes %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tie-breaking not deterministic")
		}
	}
}

func TestBins(t *testing.T) {
	c := NewCounter()
	// 10 blocks with counts 10,9,...,1.
	counts := make([]int, 10)
	for i := range counts {
		counts[i] = 10 - i
	}
	fill(c, counts...)
	bins := c.Bins(5)
	if len(bins) != 5 {
		t.Fatalf("got %d bins", len(bins))
	}
	// First bin holds the two hottest blocks: avg (10+9)/2.
	if math.Abs(bins[0].AvgCount-9.5) > 1e-9 || bins[0].MaxCount != 10 {
		t.Errorf("bin0 = %+v", bins[0])
	}
	if math.Abs(bins[4].AvgCount-1.5) > 1e-9 {
		t.Errorf("bin4 = %+v", bins[4])
	}
	if math.Abs(bins[0].UpperPercentile-0.2) > 1e-9 {
		t.Errorf("bin0 percentile = %v", bins[0].UpperPercentile)
	}
	// More bins than blocks degrades gracefully to one block per bin.
	if got := c.Bins(100); len(got) != 10 {
		t.Errorf("over-binned: %d bins", len(got))
	}
	if c.Bins(0) != nil {
		t.Error("zero bins should be nil")
	}
	if NewCounter().Bins(5) != nil {
		t.Error("empty counter bins should be nil")
	}
}

func TestBinsMonotoneNonIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		c := NewCounter()
		n := int(seed%500) + 500
		for i := 0; i < n; i++ {
			reps := int((seed^int64(i*2654435761))%7)*int(i%11) + 1
			if reps < 1 {
				reps = 1
			}
			for j := 0; j < reps; j++ {
				c.Add(key(uint64(i)))
			}
		}
		bins := c.Bins(50)
		for i := 1; i < len(bins); i++ {
			if bins[i].AvgCount > bins[i-1].AvgCount+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	c := NewCounter()
	fill(c, 6, 2, 1, 1) // total 10
	cdf := c.CDF(4)
	if len(cdf) != 4 {
		t.Fatalf("got %d points", len(cdf))
	}
	wantFrac := []float64{0.6, 0.8, 0.9, 1.0}
	for i, p := range cdf {
		if math.Abs(p.CumFraction-wantFrac[i]) > 1e-9 {
			t.Errorf("point %d = %+v, want frac %v", i, p, wantFrac[i])
		}
	}
	if cdf[3].Percentile != 1 || cdf[3].CumFraction != 1 {
		t.Error("CDF must end at (1,1)")
	}
	if NewCounter().CDF(4) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(counts []uint8) bool {
		c := NewCounter()
		for i, n := range counts {
			for j := 0; j <= int(n)%20; j++ {
				c.Add(key(uint64(i)))
			}
		}
		cdf := c.CDF(10)
		prevP, prevF := 0.0, 0.0
		for _, p := range cdf {
			if p.Percentile < prevP || p.CumFraction < prevF-1e-12 {
				return false
			}
			prevP, prevF = p.Percentile, p.CumFraction
		}
		return len(cdf) == 0 || cdf[len(cdf)-1].CumFraction > 0.999999
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShareByServer(t *testing.T) {
	keys := []block.Key{
		block.MakeKey(0, 0, 1), block.MakeKey(0, 0, 2),
		block.MakeKey(1, 0, 1), block.MakeKey(2, 0, 1),
	}
	shares := ShareByServer(keys, 3)
	if math.Abs(shares[0]-0.5) > 1e-9 || math.Abs(shares[1]-0.25) > 1e-9 || math.Abs(shares[2]-0.25) > 1e-9 {
		t.Errorf("shares = %v", shares)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if got := ShareByServer(nil, 3); got[0] != 0 {
		t.Error("empty keys should give zero shares")
	}
}

func TestOverlap(t *testing.T) {
	a := []block.Key{key(1), key(2), key(3)}
	b := []block.Key{key(2), key(3), key(4), key(5)}
	if got := Overlap(a, b); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Overlap = %v", got)
	}
	if Overlap(a, nil) != 0 {
		t.Error("empty b")
	}
	if Overlap(nil, b) != 0 {
		t.Error("empty a")
	}
	if Overlap(a, a) != 1 {
		t.Error("self overlap")
	}
}

func TestSortedCountsDescending(t *testing.T) {
	f := func(counts []uint8) bool {
		c := NewCounter()
		for i, n := range counts {
			for j := 0; j <= int(n)%10; j++ {
				c.Add(key(uint64(i)))
			}
		}
		got := c.SortedCounts()
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] > got[j] }) ||
			sort.SliceIsSorted(got, func(i, j int) bool { return got[i] >= got[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRankingMatchesComparator checks the radix ranking against the
// comparator it replaced (count descending, then key ascending), with keys
// across servers and volumes, counts of 2^16 and more, many ties, and more
// than 2^16 keys, so StableOrder takes 16-bit digits.
func TestRankingMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCounter()
	for i := 0; i < 70_000; i++ {
		k := block.MakeKey(rng.Intn(64), rng.Intn(64), uint64(rng.Int63n(1<<30)))
		n := 1 + rng.Intn(3)
		if rng.Intn(10_000) == 0 {
			n = 1<<16 + rng.Intn(2)
		}
		for j := 0; j < n; j++ {
			c.Add(k)
		}
	}
	want := make([]entry, 0, c.Unique())
	for k, n := range c.counts {
		want = append(want, entry{k, n})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].count != want[j].count {
			return want[i].count > want[j].count
		}
		return want[i].key < want[j].key
	})
	if want[0].count < 1<<16 {
		t.Fatalf("no count reached 2^16: top is %d", want[0].count)
	}
	if got := c.sortedEntries(); !slices.Equal(got, want) {
		t.Fatal("radix ranking differs from the comparator's")
	}
}

// TestRankingCacheDroppedByAdd checks that an Add after a ranking is seen
// by the next one.
func TestRankingCacheDroppedByAdd(t *testing.T) {
	c := NewCounter()
	fill(c, 3, 1, 1, 1)
	if got := c.TopShare(0.25); got != 0.5 {
		t.Fatalf("TopShare = %v, want 0.5", got)
	}
	for i := 0; i < 5; i++ {
		c.Add(key(3))
	}
	if got := c.TopShare(0.25); got != 6.0/11 {
		t.Errorf("TopShare after Add = %v, want 6/11", got)
	}
	if top := c.TopFraction(0.25); len(top) != 1 || top[0] != key(3) {
		t.Errorf("TopFraction after Add = %v, want [key 3]", top)
	}
}

// TestRankingResultsDoNotAliasCache checks that writing into what
// TopFraction and SortedCounts return leaves later rankings unchanged.
func TestRankingResultsDoNotAliasCache(t *testing.T) {
	c := NewCounter()
	fill(c, 4, 2, 7, 1)
	top, counts := c.TopFraction(1), c.SortedCounts()
	wantTop, wantCounts := slices.Clone(top), slices.Clone(counts)
	for i := range top {
		top[i], counts[i] = key(99), -1
	}
	if got := c.TopFraction(1); !slices.Equal(got, wantTop) {
		t.Errorf("TopFraction after a write into its result = %v, want %v", got, wantTop)
	}
	if got := c.SortedCounts(); !slices.Equal(got, wantCounts) {
		t.Errorf("SortedCounts after a write into its result = %v, want %v", got, wantCounts)
	}
	if got := c.TopShare(0.25); got != 7.0/14 {
		t.Errorf("TopShare = %v, want 7/14", got)
	}
}
