package main

import "math/bits"

// hist is a preallocated log-linear histogram of nanosecond values: every
// power-of-two octave is split into 32 linear buckets (≤ 3.2 % wide), and
// quantiles interpolate inside the bucket, so a percentile moves smoothly
// instead of jumping a bucket at a time. internal/metrics.Histogram is
// 12.5 % wide and reads back bucket upper bounds — wider than the 10 %
// regression bound the medians are held to. Not safe for concurrent use:
// each client owns its histograms and they are merged after the run.
type hist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	max    int64
}

const (
	histSub     = 32
	histSubBits = 5
	histMaxExp  = 40 // values clamp at 2^40 ns (~18 min)
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxExp {
		v = 1<<histMaxExp - 1
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	if shift < 0 {
		shift = 0
	}
	return shift*histSub + int(v>>uint(shift))
}

// bucketBounds returns the smallest value mapping to bucket i and the
// bucket's width.
func bucketBounds(i int) (lower, width int64) {
	if i < 2*histSub {
		return int64(i), 1
	}
	shift := uint(i/histSub - 1)
	return int64(i%histSub+histSub) << shift, 1 << shift
}

func (h *hist) observe(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the value at q in [0,1] in nanoseconds, interpolated
// linearly inside the bucket holding the q-th observation; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lower, width := bucketBounds(i)
			v := float64(lower) + float64(width)*(rank-cum)/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum += float64(c)
	}
	return float64(h.max)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
