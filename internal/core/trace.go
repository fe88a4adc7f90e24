package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

// OpTrace is one sampled operation's lifecycle record: where the request
// went (shard, cache, sieve, backend) and what it cost. Counts are in
// 512-byte blocks.
type OpTrace struct {
	Seq       uint64 `json:"seq"`           // monotone per-ring sequence
	StartNS   int64  `json:"start_unix_ns"` // arrival, UnixNano
	Op        string `json:"op"`            // "read" or "write"
	Server    int    `json:"server"`        //
	Volume    int    `json:"volume"`        //
	Offset    uint64 `json:"offset"`        // byte offset
	Blocks    int    `json:"blocks"`        // request size in blocks
	Shard     int    `json:"shard"`         // shard of the first block
	Hits      int    `json:"hits"`          // blocks served/updated in cache
	Misses    int    `json:"misses"`        // blocks this op fetched/wrote through
	Coalesced int    `json:"coalesced"`     // blocks joined onto another op's flight
	Admitted  int    `json:"admitted"`      // blocks the sieve admitted (alloc writes)
	Err       string `json:"err,omitempty"` // operation error, if any
	LatencyNS int64  `json:"latency_ns"`    // whole-call service time
}

// TraceRing is a fixed-size ring of sampled OpTrace records. Sampling is
// an atomic counter (Sample returns true for one in every sampleEvery
// calls — the unsampled hot path costs one atomic add); recording a
// sampled op takes a mutex, which is off the common path by construction.
// The zero-size ring is invalid; use NewTraceRing.
type TraceRing struct {
	sampleEvery uint64
	ctr         atomic.Uint64

	mu   sync.Mutex
	seq  uint64 // stamped under mu, so ring order is sequence order
	recs []OpTrace
	n    int // records written, saturating at len(recs)
	next int // ring cursor
}

// NewTraceRing returns a ring holding the last size sampled records,
// sampling one in every sampleEvery operations (1 = every op).
func NewTraceRing(size int, sampleEvery int) *TraceRing {
	if size < 1 {
		size = 1
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &TraceRing{sampleEvery: uint64(sampleEvery), recs: make([]OpTrace, size)}
}

// Sample reports whether the current operation should be traced.
func (t *TraceRing) Sample() bool {
	if t.sampleEvery == 1 {
		return true
	}
	return t.ctr.Add(1)%t.sampleEvery == 0
}

// Record stores rec in the ring, stamping its sequence number.
func (t *TraceRing) Record(rec OpTrace) {
	t.mu.Lock()
	t.seq++
	rec.Seq = t.seq
	t.recs[t.next] = rec
	t.next = (t.next + 1) % len(t.recs)
	if t.n < len(t.recs) {
		t.n++
	}
	t.mu.Unlock()
}

// Dump returns the ring's records, newest first.
func (t *TraceRing) Dump() []OpTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]OpTrace, 0, t.n)
	for i := 1; i <= t.n; i++ {
		out = append(out, t.recs[(t.next-i+len(t.recs))%len(t.recs)])
	}
	return out
}

// beginTrace starts a sampled op-lifecycle record, or returns nil when
// this operation is not sampled (the common case: one atomic add).
func (s *Store) beginTrace(op string, server, volume int, p []byte, off uint64) *OpTrace {
	if s.trace == nil || !s.trace.Sample() {
		return nil
	}
	return &OpTrace{
		StartNS: s.now().UnixNano(),
		Op:      op,
		Server:  server,
		Volume:  volume,
		Offset:  off,
		Blocks:  len(p) / block.Size,
		Shard:   s.shardIndex(block.MakeKey(server, volume, off/block.Size)),
	}
}

// endTrace finishes and records a sampled trace (no-op for nil).
func (s *Store) endTrace(tr *OpTrace, d time.Duration, err error) {
	if tr == nil {
		return
	}
	tr.LatencyNS = d.Nanoseconds()
	if err != nil {
		tr.Err = err.Error()
	}
	s.trace.Record(*tr)
}

// Traces returns the sampled operation lifecycle records, newest first
// (nil when Options.TraceSample is 0).
func (s *Store) Traces() []OpTrace {
	if s.trace == nil {
		return nil
	}
	return s.trace.Dump()
}
