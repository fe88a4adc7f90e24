package sieve

import (
	"container/heap"

	"repro/internal/block"
)

// This file implements the paper's §3.1 thought experiment: the analytic
// Table 2 (SSD-operation shares under an oracle replacement policy for each
// allocation policy) and the Belady selective-allocation counterexample
// showing that maximizing hits does not minimize allocation-writes.

// Table2Row is one row of the paper's Table 2, with every quantity
// expressed as a fraction of all ensemble accesses.
type Table2Row struct {
	Policy string
	// Hits and Misses partition all accesses.
	Hits, Misses float64
	// AllocWrites is the fraction of accesses triggering an SSD
	// allocation-write.
	AllocWrites float64
	// ReadHits is the fraction served as SSD reads.
	ReadHits float64
	// SSDWrites is write hits + allocation-writes.
	SSDWrites float64
	// SSDOps is the total fraction of accesses that touch the SSD.
	SSDOps float64
}

// Table2 reproduces the paper's Table 2 analytically. hitRatio is the hit
// rate the oracle replacement policy sustains for every allocation policy
// (the paper conservatively assumes 35%, the ideal-allocation average);
// readFrac is the read share of both hits and misses (the paper assumes
// 3:1, i.e. 0.75); epsilon is the ideal sieve's allocation-write fraction
// (1% of *unique* blocks, hence ≪1% of accesses — the paper writes ε%).
func Table2(hitRatio, readFrac, epsilon float64) []Table2Row {
	miss := 1 - hitRatio
	writeHits := hitRatio * (1 - readFrac)
	readHits := hitRatio * readFrac
	rows := []Table2Row{
		{Policy: "Allocate-on-demand (AOD)", AllocWrites: miss},
		{Policy: "Write-no-allocate (WMNA)", AllocWrites: miss * readFrac},
		{Policy: "Ideal-selective-allocate (ISA)", AllocWrites: epsilon},
	}
	for i := range rows {
		r := &rows[i]
		r.Hits = hitRatio
		r.Misses = miss
		r.ReadHits = readHits
		r.SSDWrites = writeHits + r.AllocWrites
		r.SSDOps = readHits + r.SSDWrites
	}
	return rows
}

// OracleResult summarizes a simulated reference stream under a selective-
// allocation strategy on a tiny cache — used for the paper's §3.1 Belady
// counterexample.
type OracleResult struct {
	Hits        int
	AllocWrites int
}

// BeladySelective simulates a fully-associative cache of the given
// capacity over the reference stream with Belady's replacement extended to
// selective allocation: a missing block is allocated only if its next use
// is earlier than the next use of some cached block (evicting the block
// with the farthest next use). This maximizes hits but, as the paper's
// a,a,b,b,a,a,c,c,... example shows, does not minimize allocation-writes.
func BeladySelective(stream []block.Key, capacity int) OracleResult {
	return belady(stream, capacity, true)
}

// FixedAllocation simulates the same cache with a fixed resident set: the
// given blocks are allocated once up front and never replaced. For the
// counterexample stream, pinning `a` achieves nearly the same hits with
// exactly one allocation-write per pinned block.
func FixedAllocation(stream []block.Key, pinned []block.Key) OracleResult {
	in := make(map[block.Key]bool, len(pinned))
	for _, k := range pinned {
		in[k] = true
	}
	res := OracleResult{AllocWrites: len(pinned)}
	for _, key := range stream {
		if in[key] {
			res.Hits++
		}
	}
	return res
}

// CounterexampleStream builds the paper's §3.1 reference stream
// a,a,b,b,a,a,c,c,a,a,d,d,... with n distinct one-shot blocks interleaved
// between reuses of block a.
func CounterexampleStream(n int) []block.Key {
	a := block.MakeKey(0, 0, 0)
	var out []block.Key
	for i := 1; i <= n; i++ {
		out = append(out, a, a, block.MakeKey(0, 0, uint64(i)), block.MakeKey(0, 0, uint64(i)))
	}
	return out
}

// nextUses returns, for each position, the index of the block's next use
// (len(stream) if none).
func nextUses(stream []block.Key) []int {
	next := make([]int, len(stream))
	last := make(map[block.Key]int)
	for i := len(stream) - 1; i >= 0; i-- {
		if j, ok := last[stream[i]]; ok {
			next[i] = j
		} else {
			next[i] = len(stream)
		}
		last[stream[i]] = i
	}
	return next
}

// MinCompulsoryAllocFraction bounds the allocation-writes of Belady's MIN
// with allocate-on-demand in terms of unique blocks (§3.1): with fraction
// f1 of blocks having exactly one access and f4 having ≤4, at least
// f1 + (f4-f1)/4 of unique blocks incur compulsory allocation-writes. The
// paper evaluates 50% + 47%/4 = 61.75%.
func MinCompulsoryAllocFraction(f1, f4 float64) float64 {
	return f1 + (f4-f1)/4
}

// beladyHeap is a container/heap max-heap of cached blocks by next use,
// with each block's index in it.
type beladyHeap struct {
	blocks []beladyBlock
	pos    map[block.Key]int
}

type beladyBlock struct {
	key     block.Key
	nextUse int
}

func (h *beladyHeap) Len() int           { return len(h.blocks) }
func (h *beladyHeap) Less(i, j int) bool { return h.blocks[i].nextUse > h.blocks[j].nextUse }
func (h *beladyHeap) Swap(i, j int) {
	h.blocks[i], h.blocks[j] = h.blocks[j], h.blocks[i]
	h.pos[h.blocks[i].key], h.pos[h.blocks[j].key] = i, j
}

func (h *beladyHeap) Push(x any) {
	h.pos[x.(beladyBlock).key] = len(h.blocks)
	h.blocks = append(h.blocks, x.(beladyBlock))
}

func (h *beladyHeap) Pop() any {
	last := h.blocks[len(h.blocks)-1]
	delete(h.pos, last.key)
	h.blocks = h.blocks[:len(h.blocks)-1]
	return last
}

// BeladyAOD simulates Belady's MIN replacement with allocate-on-demand over
// the reference stream in O(n log C): every miss allocates (evicting the
// cached block with the farthest next use). This is the §3.1 oracle-
// replacement baseline: it maximizes hits for an unsieved cache yet still
// pays an allocation-write on every miss.
func BeladyAOD(stream []block.Key, capacity int) OracleResult {
	return belady(stream, capacity, false)
}

// belady is BeladyAOD, or with selective BeladySelective.
func belady(stream []block.Key, capacity int, selective bool) OracleResult {
	next := nextUses(stream)
	h := &beladyHeap{pos: make(map[block.Key]int, capacity)}
	var res OracleResult
	for i, key := range stream {
		if j, ok := h.pos[key]; ok {
			res.Hits++
			h.blocks[j].nextUse = next[i]
			heap.Fix(h, j)
			continue
		}
		if h.Len() >= capacity {
			if selective && next[i] >= h.blocks[0].nextUse {
				continue // no resident's next use is later than this block's
			}
			heap.Pop(h)
		}
		heap.Push(h, beladyBlock{key, next[i]})
		res.AllocWrites++
	}
	return res
}
