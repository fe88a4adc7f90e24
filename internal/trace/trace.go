// Package trace defines the block-trace model used throughout SieveStore:
// streaming readers and writers in both the MSR-Cambridge CSV format and a
// compact binary format, request→block expansion with completion-time
// interpolation (paper §4), calendar-day partitioning, and trace summary
// statistics (paper Table 1).
package trace

import (
	"errors"
	"io"
	"time"

	"repro/internal/block"
)

// Day is the epoch length used for calendar-day analysis. The paper
// partitions its 8-calendar-day trace at midnight boundaries.
const Day = int64(24 * time.Hour)

// Minute is the granularity of the IOPS-occupancy accounting (§4).
const Minute = int64(time.Minute)

// DayOf returns the zero-based calendar day containing timestamp t
// (nanoseconds since the trace epoch, which is midnight of day 0).
func DayOf(t int64) int { return int(t / Day) }

// MinuteOf returns the zero-based minute index containing timestamp t.
func MinuteOf(t int64) int { return int(t / Minute) }

// Reader is a stream of trace requests in non-decreasing time order.
// Next returns io.EOF after the last request.
type Reader interface {
	Next() (block.Request, error)
}

// Writer consumes a stream of trace requests.
type Writer interface {
	Write(block.Request) error
}

// ErrUnsorted is returned by readers that require time order when they
// observe a timestamp regression.
var ErrUnsorted = errors.New("trace: requests out of time order")

// SliceReader adapts an in-memory request slice to the Reader interface.
type SliceReader struct {
	reqs []block.Request
	pos  int
}

// NewSliceReader returns a Reader over reqs. The slice is not copied.
func NewSliceReader(reqs []block.Request) *SliceReader {
	return &SliceReader{reqs: reqs}
}

// Next implements Reader.
func (r *SliceReader) Next() (block.Request, error) {
	if r.pos >= len(r.reqs) {
		return block.Request{}, io.EOF
	}
	req := r.reqs[r.pos]
	r.pos++
	return req, nil
}

// Reset rewinds the reader to the start of the slice.
func (r *SliceReader) Reset() { r.pos = 0 }

// Collect drains a Reader into a slice. It is intended for tests and small
// traces; experiment pipelines stream instead.
func Collect(r Reader) ([]block.Request, error) {
	var out []block.Request
	for {
		req, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, req)
	}
}

// SortByTime sorts requests in place by issue time, stably, so equal-time
// requests keep their generation order and replays stay deterministic. It
// reports whether reqs was already in order (then nothing moves), and holds
// at its peak 24 extra bytes per request: 8 of keys and StableOrder's 16.
func SortByTime(reqs []block.Request) (sorted bool) {
	keys, sorted := make([]uint64, len(reqs)), true
	for i := range reqs {
		keys[i] = uint64(reqs[i].Time) ^ 1<<63 // order-preserving int64 → uint64
		sorted = sorted && (i == 0 || keys[i-1] <= keys[i])
	}
	if sorted {
		return true
	}
	// Apply p in place cycle by cycle: slot j takes old reqs[p[j]], then p[j] = -1.
	p := StableOrder(keys)
	for i := range p {
		j, first := i, reqs[i]
		for ; p[j] >= 0 && int(p[j]) != i; j, p[j] = int(p[j]), -1 {
			reqs[j] = reqs[p[j]]
		}
		reqs[j], p[j] = first, -1
	}
	return false
}

// StableOrder returns the permutation p that stably sorts keys ascending,
// equal keys in index order: an LSD radix sort of key − min(keys) that stops
// at the span's top nonzero digit. Digits are 16 bits from 2^16 keys up, so
// a span below 2^48 takes three passes, and 8 bits below that, where clearing
// and scanning a 2^16-entry histogram would cost more than the keys. It
// overwrites keys, needs len(keys) < 2^31, and holds at its peak 16 bytes
// per key, p included, plus the histogram (256 KiB, or 1 KiB).
func StableOrder(keys []uint64) []int32 {
	lo, hi := ^uint64(0), uint64(0)
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	n, bits := len(keys), 8
	if n >= 1<<16 {
		bits = 16
	}
	p, q, tmp, count := make([]int32, n), make([]int32, n), make([]uint64, n), make([]int32, 1<<bits)
	for i := range p {
		p[i], keys[i] = int32(i), keys[i]-lo
	}
	mask := uint64(len(count) - 1)
	for shift := 0; (hi-lo)>>shift != 0; shift += bits {
		clear(count)
		for _, k := range keys {
			count[k>>shift&mask]++
		}
		for d, sum := 0, int32(0); d < len(count); d++ {
			count[d], sum = sum, sum+count[d]
		}
		for i, k := range keys {
			d := &count[k>>shift&mask]
			tmp[*d], q[*d], *d = k, p[i], *d+1
		}
		keys, tmp, p, q = tmp, keys, q, p
	}
	return p
}

// Merge returns a Reader that merges several time-ordered readers into one
// time-ordered stream (k-way merge). It is used to combine per-server trace
// files into the ensemble trace. Equal-time requests come out in input
// order, earlier readers first, as a stable sort of the concatenation would.
func Merge(readers ...Reader) Reader {
	m := &mergeReader{}
	for i, r := range readers {
		req, err := r.Next()
		if err == io.EOF {
			continue
		}
		if err != nil {
			m.err = err
			continue
		}
		m.heads = append(m.heads, mergeHead{req: req, r: r, idx: i})
	}
	m.heapify()
	return m
}

type mergeHead struct {
	req block.Request
	r   Reader
	idx int // position in Merge's arguments, the tie-break
}

func (h *mergeHead) before(o *mergeHead) bool {
	return h.req.Time < o.req.Time || h.req.Time == o.req.Time && h.idx < o.idx
}

type mergeReader struct {
	heads []mergeHead
	err   error
}

func (m *mergeReader) heapify() {
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

func (m *mergeReader) siftDown(i int) {
	n := len(m.heads)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && m.heads[l].before(&m.heads[least]) {
			least = l
		}
		if r < n && m.heads[r].before(&m.heads[least]) {
			least = r
		}
		if least == i {
			return
		}
		m.heads[i], m.heads[least] = m.heads[least], m.heads[i]
		i = least
	}
}

func (m *mergeReader) Next() (block.Request, error) {
	if m.err != nil {
		return block.Request{}, m.err
	}
	if len(m.heads) == 0 {
		return block.Request{}, io.EOF
	}
	out := m.heads[0].req
	req, err := m.heads[0].r.Next()
	switch {
	case err == io.EOF:
		last := len(m.heads) - 1
		m.heads[0] = m.heads[last]
		m.heads = m.heads[:last]
	case err != nil:
		m.err = err
	default:
		m.heads[0].req = req
	}
	if len(m.heads) > 0 {
		m.siftDown(0)
	}
	return out, nil
}

// Expand appends the per-block accesses of a request to dst and returns the
// extended slice. Completion times for the individual blocks of a
// multi-block request are linearly interpolated between the request's issue
// time and its completion (issue+duration), matching the paper's
// methodology (§4) for timing allocation-writes: block i of n completes at
// issue + duration*(i+1)/n, so the last block completes exactly when the
// request does. The time steps by duration/n, and by one more toward zero
// each time the remainders add up past n: no divide per block.
func Expand(dst []block.Access, req *block.Request) []block.Access {
	n := req.Blocks()
	// MakeKey checks the last block's number, and with it every block's.
	first := block.MakeKey(req.Server, req.Volume, req.Offset/block.Size+uint64(n-1)) - block.Key(n-1)
	n64 := int64(n)
	q, r := req.Duration/n64, req.Duration%n64
	t, rem := req.Time, int64(0)
	for i := 0; i < n; i++ {
		t, rem = t+q, rem+r
		if rem >= n64 {
			t, rem = t+1, rem-n64
		} else if rem <= -n64 {
			t, rem = t-1, rem+n64
		}
		dst = append(dst, block.Access{Time: t, Key: first + block.Key(i), Kind: req.Kind})
	}
	return dst
}
