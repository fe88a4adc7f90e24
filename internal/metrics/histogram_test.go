package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketLayout checks the log-linear mapping invariants for
// every bucket boundary and a sweep of random values: indices are
// monotone in the value, every value lands in a bucket whose upper bound
// covers it, and bucket widths stay within the 12.5% design error.
func TestHistogramBucketLayout(t *testing.T) {
	if got := histBucket(0); got != 0 {
		t.Fatalf("histBucket(0) = %d", got)
	}
	if got := histBucket(-5); got != 0 {
		t.Fatalf("histBucket(-5) = %d", got)
	}
	// Upper bounds are strictly increasing and consistent with histBucket.
	for i := 0; i < HistogramBuckets; i++ {
		u := BucketUpper(i)
		if i > 0 && u <= BucketUpper(i-1) {
			t.Fatalf("BucketUpper not increasing at %d: %d <= %d", i, u, BucketUpper(i-1))
		}
		if i < HistogramBuckets-1 {
			if got := histBucket(u); got != i {
				t.Fatalf("histBucket(BucketUpper(%d)=%d) = %d", i, u, got)
			}
			if got := histBucket(u + 1); got != i+1 {
				t.Fatalf("histBucket(%d) = %d, want %d", u+1, got, i+1)
			}
		}
	}
	// Clamp: everything at or above the top bucket's range stays in range.
	for _, v := range []int64{histMaxValue, histMaxValue + 1, 1 << 62} {
		if got := histBucket(v); got != HistogramBuckets-1 {
			t.Fatalf("histBucket(%d) = %d, want %d", v, got, HistogramBuckets-1)
		}
	}
	// Relative bucket width ≤ 12.5% above the exact range.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := r.Int63n(histMaxValue)
		b := histBucket(v)
		u := BucketUpper(b)
		if u < v {
			t.Fatalf("value %d maps to bucket %d with upper %d < value", v, b, u)
		}
		if v >= histSubCount && float64(u-v) > 0.125*float64(v)+1 {
			t.Fatalf("value %d: bucket upper %d exceeds 12.5%% error", v, u)
		}
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	durations := []time.Duration{
		0, time.Nanosecond, 100 * time.Nanosecond, time.Microsecond,
		50 * time.Microsecond, time.Millisecond, 20 * time.Millisecond,
		time.Second, -time.Second, // negative clamps to 0
	}
	var sum int64
	for _, d := range durations {
		h.Observe(d)
		if d > 0 {
			sum += d.Nanoseconds()
		}
	}
	s := h.Snapshot()
	if s.Count != int64(len(durations)) {
		t.Fatalf("count = %d, want %d", s.Count, len(durations))
	}
	if s.Sum != sum {
		t.Fatalf("sum = %d, want %d", s.Sum, sum)
	}
	if s.Max != time.Second.Nanoseconds() {
		t.Fatalf("max = %d, want 1s", s.Max)
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, s.Count)
	}
	if m := s.Mean(); m <= 0 || m > time.Second {
		t.Fatalf("mean = %v", m)
	}
}

// TestHistogramQuantiles loads a known distribution and checks the
// read-back quantiles stay within the bucket error bound.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations: i microseconds for i in 1..1000.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
		{0.999, 999 * time.Microsecond},
	} {
		got := s.Quantile(tc.q)
		if got < tc.want || float64(got) > 1.125*float64(tc.want)+1 {
			t.Errorf("q%.3f = %v, want within [%v, %v*1.125]", tc.q, got, tc.want, tc.want)
		}
	}
	if got := s.Quantile(1); got > time.Duration(s.Max) {
		t.Errorf("q1 = %v beyond max %v", got, time.Duration(s.Max))
	}
	// Degenerate inputs.
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot quantile/mean should be 0")
	}
	if s.Quantile(-1) > s.Quantile(0) || s.Quantile(2) != s.Quantile(1) {
		t.Error("out-of-range quantiles should clamp")
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines while
// snapshots and quantiles run concurrently; final totals must be exact.
// Run under -race.
func TestHistogramConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 5000
	)
	var h Histogram
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Snapshot().Quantile(0.99)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(g*perG+i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total = %d, want %d", total, s.Count)
	}
	if s.Max != int64(goroutines*perG-1) {
		t.Fatalf("max = %d, want %d", s.Max, goroutines*perG-1)
	}
}

// BenchmarkHistogramObserve measures the hot-path cost of one Observe —
// it must be allocation-free (the acceptance bar for keeping the
// histogram on the store's hit path).
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Nanosecond)
	}
}

// BenchmarkHistogramObserveParallel is the striping rationale: concurrent
// observers should scale instead of serializing on one cache line.
func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var i int64
		for pb.Next() {
			i++
			h.Observe(time.Duration(i) * time.Nanosecond)
		}
	})
}
