// Per-node state: the appliance connection, the health breaker, and the
// hinted-handoff queue that buffers per-block deliveries while the node
// is unreachable.
//
// Lock order (cluster-wide): stripe.mu → node.mu. node.mu is never held
// across network I/O.
package cluster

import (
	"sync"
	"sync/atomic"

	"repro/internal/appliance"
	"repro/internal/block"
	"repro/internal/resilience"
)

// Node lifecycle states.
const (
	nodeUp   = iota // serving; direct reads and writes route here
	nodeDown        // unreachable; writes buffer as hints, reads fall through
)

func stateName(s int32) string {
	if s == nodeUp {
		return "up"
	}
	return "down"
}

// volID names one volume of the ensemble.
type volID struct{ server, volume int }

// span is a coarse inclusive block-number range, the overflow record for
// hints shed at the queue bound: the union is cheap to keep and to
// invalidate wholesale on recovery, at the cost of over-invalidating.
type span struct{ lo, hi uint64 }

// hintOp is what the queue holds per block: fresh data to deliver, or —
// data == nil — an invalidation the node missed.
type hintOp struct {
	data []byte
}

// node is one appliance in the ring.
type node struct {
	id   int
	addr string
	cl   *appliance.Client
	br   *resilience.Breaker

	// demotePending is set when the node goes down and cleared after the
	// repair goroutine has wiped its acked bits from the dirty map; the
	// node may not come back up in between (a restarted node's cache is
	// assumed lost until re-replication proves otherwise).
	demotePending atomic.Bool

	mu      sync.Mutex
	state   int32
	healing bool // up, but handoff/shed/re-replication not yet settled

	hints     map[block.Key]*hintOp
	order     []block.Key // FIFO of keys awaiting drain (lazily compacted)
	shedSpans map[volID]span

	sheds  int64 // hint offers dropped at the queue bound
	downs  int64 // up → down transitions
	ups    int64 // down → up transitions
	drains int64 // hints delivered
}

func newNode(id int, addr string, cl *appliance.Client, br resilience.BreakerConfig) *node {
	return &node{
		id:        id,
		addr:      addr,
		cl:        cl,
		br:        resilience.NewBreaker(br),
		hints:     make(map[block.Key]*hintOp),
		shedSpans: make(map[volID]span),
	}
}

func (n *node) getState() int32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// serving reports whether direct I/O may route to this node right now.
func (n *node) serving() bool {
	return n.getState() == nodeUp && !n.br.Open()
}

// offerHint buffers data (nil = invalidate) for later delivery of key.
// An existing entry is replaced in place — the queue holds at most one,
// newest, hint per key, which is what makes drain order per key trivial
// and replay idempotent. At the bound the hint is shed: the key's range
// joins the coarse shed union, which keeps excluding the block from
// reads at this node until the heal invalidates it there.
func (n *node) offerHint(key block.Key, data []byte, max int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h, ok := n.hints[key]; ok {
		h.data = data
		return
	}
	if max > 0 && len(n.hints) >= max {
		n.sheds++
		n.addSpanLocked(key)
		return
	}
	n.hints[key] = &hintOp{data: data}
	n.order = append(n.order, key)
}

// dropHint removes a pending hint made obsolete by a successful direct
// write of newer data. Caller holds the key's stripe lock.
func (n *node) dropHint(key block.Key) {
	n.mu.Lock()
	delete(n.hints, key)
	n.mu.Unlock()
}

// pendingHint reports whether a delivery for key is still outstanding —
// while true, the node must not serve reads for the key.
func (n *node) pendingHint(key block.Key) bool {
	n.mu.Lock()
	_, ok := n.hints[key]
	n.mu.Unlock()
	return ok
}

// popDrainKey removes and returns the oldest key with a pending hint.
// The hint entry itself stays in the map until the drain confirms
// delivery (or finds it superseded) — reads keep excluding the key at
// this node for the whole in-flight window.
func (n *node) popDrainKey() (block.Key, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(n.order) > 0 {
		k := n.order[0]
		n.order = n.order[1:]
		if _, ok := n.hints[k]; ok {
			return k, true
		}
	}
	return 0, false
}

// requeue puts a popped key back at the queue front after a failed
// delivery.
func (n *node) requeue(key block.Key) {
	n.mu.Lock()
	if _, ok := n.hints[key]; ok {
		n.order = append([]block.Key{key}, n.order...)
	}
	n.mu.Unlock()
}

// takeHint reads the pending hint for a popped key. Caller holds the
// key's stripe lock, so the entry cannot be superseded or dropped
// concurrently.
func (n *node) takeHint(key block.Key) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hints[key]
	if !ok {
		return nil, false
	}
	return h.data, true
}

// confirmHint removes the entry after successful delivery.
func (n *node) confirmHint(key block.Key) {
	n.mu.Lock()
	delete(n.hints, key)
	n.drains++
	n.mu.Unlock()
}

func (n *node) hintDepth() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.hints)
}

// addSpanLocked widens the node's shed union to cover key.
func (n *node) addSpanLocked(key block.Key) {
	v := volID{key.Server(), key.Volume()}
	num := key.Number()
	s, ok := n.shedSpans[v]
	if !ok {
		n.shedSpans[v] = span{num, num}
		return
	}
	if num < s.lo {
		s.lo = num
	}
	if num > s.hi {
		s.hi = num
	}
	n.shedSpans[v] = s
}

// addSpan records an unreachable-node invalidation as a shed range: the
// blocks are excluded from reads here until the heal invalidates them on
// the node.
func (n *node) addSpan(server, volume int, lo, hi uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v := volID{server, volume}
	s, ok := n.shedSpans[v]
	if !ok {
		n.shedSpans[v] = span{lo, hi}
		return
	}
	if lo < s.lo {
		s.lo = lo
	}
	if hi > s.hi {
		s.hi = hi
	}
	n.shedSpans[v] = s
}

// inShed reports whether key sits in the node's shed union — such blocks
// may be arbitrarily stale in the node's cache and must not serve reads.
func (n *node) inShed(key block.Key) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.shedSpans) == 0 {
		return false
	}
	s, ok := n.shedSpans[volID{key.Server(), key.Volume()}]
	if !ok {
		return false
	}
	num := key.Number()
	return num >= s.lo && num <= s.hi
}

// takeSpans snapshots the shed union for healing. Spans are only removed
// by clearSpan after the on-node invalidation succeeded; until then they
// keep excluding reads.
func (n *node) takeSpans() map[volID]span {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[volID]span, len(n.shedSpans))
	for v, s := range n.shedSpans {
		out[v] = s
	}
	return out
}

// clearSpan removes a healed span — unless new sheds widened it
// meanwhile, in which case the widened remainder stays for the next
// pass.
func (n *node) clearSpan(v volID, healed span) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.shedSpans[v]
	if !ok {
		return
	}
	if s == healed {
		delete(n.shedSpans, v)
	}
}
