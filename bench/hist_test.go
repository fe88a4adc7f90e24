package main

import (
	"math"
	"testing"
)

func TestHistBucketsHoldTheirValues(t *testing.T) {
	for _, v := range []int64{0, 1, 31, 32, 63, 64, 65, 127, 128, 1000, 4095, 4096, 1 << 20, 1<<30 + 12345, 1<<40 - 1} {
		i := bucketOf(v)
		lower, width := bucketBounds(i)
		if v < lower || v >= lower+width {
			t.Errorf("value %d landed in bucket %d = [%d, %d)", v, i, lower, lower+width)
		}
		if v >= 64 && float64(width) > float64(lower)/histSub {
			t.Errorf("bucket %d is %d wide at %d: more than 1/%d", i, width, lower, histSub)
		}
	}
	if i := bucketOf(1 << 50); i != histBuckets-1 {
		t.Errorf("a value past the range landed in bucket %d, want the last, %d", i, histBuckets-1)
	}
}

func TestHistQuantilesInterpolate(t *testing.T) {
	var a, b hist
	for v := int64(1); v <= 10000; v++ {
		if v%2 == 0 {
			a.observe(v)
		} else {
			b.observe(v)
		}
	}
	a.merge(&b)
	if a.n != 10000 || a.max != 10000 || a.mean() != 5000.5 {
		t.Fatalf("merged n=%d max=%d mean=%v", a.n, a.max, a.mean())
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 5000}, {0.9, 9000}, {0.99, 9900}, {1, 10000}} {
		if got := a.quantile(c.q); math.Abs(got-c.want) > 0.01*c.want {
			t.Errorf("quantile(%v) = %v, want %v within 1 %%", c.q, got, c.want)
		}
	}
	var empty hist
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Error("an empty histogram must read 0")
	}
}
