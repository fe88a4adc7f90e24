// The background repair engine: one goroutine that probes down nodes,
// wipes the acked bits of nodes whose caches must be presumed lost,
// heals shed ranges, drains hinted handoff, and re-replicates
// under-replicated dirty blocks — which is also the whole rebalancing
// mechanism after Join/Leave, since membership change just makes some
// blocks under-replicated on their new owners and over-replicated on
// their old ones.
package cluster

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/appliance"
	"repro/internal/block"
)

// repairLoop runs repairPass on the ProbeEvery cadence, or sooner when
// kicked by a failure or a membership change.
func (c *Client) repairLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
		case <-t.C:
		}
		c.repairPass()
	}
}

// repairPass runs one full repair cycle. Serialized by repairMu: the
// loop and Flush's inline drain may both call it.
//
// Order matters: demotions sweep first so a restarted node's stale bits
// are gone before the prober may mark it up, and probing precedes
// heal/drain so a just-recovered node settles within the same pass.
func (c *Client) repairPass() {
	c.repairMu.Lock()
	defer c.repairMu.Unlock()
	topo := c.topo.Load()
	c.demoteSweep(topo)
	c.probeDown(topo)
	for _, n := range topo.nodes {
		if c.closed.Load() {
			return
		}
		if n.serving() {
			c.healSpans(n)
			c.drainNode(n)
		}
	}
	if c.cfg.WriteBack {
		c.replicationSweep(topo)
	}
	c.settleHealing(topo)
}

// demoteSweep clears the acked bits of every node that went down since
// the last pass: its cache contents must be presumed lost, so it no
// longer counts as holding any dirty block's freshest copy. Runs before
// probeDown (which skips demote-pending nodes), so a node can never
// come back up with pre-crash bits still standing.
func (c *Client) demoteSweep(topo *topology) {
	var mask uint64
	var pending []*node
	for _, n := range topo.nodes {
		if n.demotePending.Load() {
			mask |= 1 << uint(n.id)
			pending = append(pending, n)
		}
	}
	if mask == 0 {
		return
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for _, e := range s.dirty {
			// Entries that lose their last bit stay in the map: no replica
			// holds the data, so reads must fail (unavailable), never fall
			// back to a stale cached or backend copy.
			e.acked &^= mask
		}
		s.mu.Unlock()
	}
	for _, n := range pending {
		n.demotePending.Store(false)
	}
}

// probeDown sends a probe (a Stats round-trip) to each down node whose
// breaker allows one — Allow is what moves an expired open breaker to
// half-open, and a successful Record closes it. Probe success marks the
// node up and healing; its queued hints and shed ranges are then
// processed by the same pass.
func (c *Client) probeDown(topo *topology) {
	for _, n := range topo.nodes {
		if n.getState() != nodeDown || n.demotePending.Load() {
			continue
		}
		if n.br.Allow() != nil {
			continue
		}
		c.probes.Add(1)
		_, err := n.cl.Stats()
		n.br.Record(err)
		if err != nil {
			continue
		}
		n.mu.Lock()
		n.state = nodeUp
		n.ups++
		n.healing = true
		n.mu.Unlock()
	}
}

// healSpans replays the coarse shed ranges as on-node invalidations,
// chunked under the wire protocol's byte limit. A span is cleared only
// after the whole range invalidated; until then it keeps excluding
// reads.
func (c *Client) healSpans(n *node) {
	const chunkBlocks = appliance.MaxIOBytes / block.Size
	for v, s := range n.takeSpans() {
		healed := true
		for lo := s.lo; lo <= s.hi; {
			cnt := s.hi - lo + 1
			if cnt > chunkBlocks {
				cnt = chunkBlocks
			}
			_, err := n.cl.Invalidate(v.server, v.volume, lo*block.Size, int(cnt)*block.Size)
			c.recordResult(n, err)
			if err != nil {
				healed = false
				break
			}
			lo += cnt
		}
		if healed {
			n.clearSpan(v, s)
		} else if !n.serving() {
			return
		}
	}
}

// drainNode delivers the node's hinted handoff queue, oldest key first.
// Each delivery runs under the key's stripe lock, so it cannot race a
// fresh direct write, a supersede, or a re-replication of the same key;
// the hint entry is removed only after the node acknowledged, so reads
// keep excluding the key at this node for the whole in-flight window.
// Replay is idempotent: the queue holds one newest hint per key, and
// re-delivering a block write or invalidation is harmless.
func (c *Client) drainNode(n *node) {
	for n.serving() && !c.closed.Load() {
		k, ok := n.popDrainKey()
		if !ok {
			return
		}
		s := &c.stripes[stripeIdx(k)]
		s.mu.Lock()
		data, ok := n.takeHint(k)
		if !ok {
			// Superseded by a direct write after it was queued.
			s.mu.Unlock()
			continue
		}
		var err error
		if data == nil {
			_, err = n.cl.Invalidate(k.Server(), k.Volume(), k.Offset(), block.Size)
		} else {
			err = n.cl.WriteAt(k.Server(), k.Volume(), data, k.Offset())
		}
		c.recordResult(n, err)
		if err != nil {
			n.requeue(k)
			s.mu.Unlock()
			return
		}
		n.confirmHint(k)
		if data != nil {
			c.markAcked(k, n.id, true)
		}
		c.drained.Add(1)
		s.mu.Unlock()
	}
}

// replicationSweep walks the dirty map and restores every key to full
// replication on its current owners: copy from any node still holding
// the freshest data to each up-to-date-less owner, then — once every
// owner holds it — invalidate the leftover copies on former owners.
// This single mechanism covers re-replication after a crash demotion
// AND key movement after Join/Leave (the source may well not be an
// owner anymore; that is how data streams off a departed node).
func (c *Client) replicationSweep(topo *topology) {
	var owners []int
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		keys := make([]block.Key, 0, len(s.dirty))
		for k := range s.dirty {
			keys = append(keys, k)
		}
		s.mu.Unlock()
		// Per-key locking keeps the stripe available to writers between
		// copies — a sweep may do a lot of network I/O.
		for _, k := range keys {
			if c.closed.Load() {
				return
			}
			owners = c.repairKey(topo, k, owners)
		}
	}
}

// repairKey restores one dirty key to full replication; see
// replicationSweep. Holds the key's stripe lock across the copy, which
// guarantees the copied bytes are the freshest acked version.
func (c *Client) repairKey(topo *topology, k block.Key, owners []int) []int {
	s := &c.stripes[stripeIdx(k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.dirty[k]
	if e == nil || e.acked == 0 {
		// Deleted meanwhile, or every holder crashed: nothing to copy from.
		return owners
	}
	owners = topo.ownersFor(c, k, owners)
	var src *node
	for _, t := range topo.nodes {
		if e.acked&(1<<uint(t.id)) != 0 && t.canSource() {
			src = t
			break
		}
	}
	var buf []byte
	for _, id := range owners {
		t := topo.nodes[id]
		if e.acked&(1<<uint(id)) != 0 {
			continue
		}
		if src == nil || !t.serving() || t.demotePending.Load() {
			continue
		}
		if buf == nil {
			buf = make([]byte, block.Size)
			if err := src.cl.ReadAt(k.Server(), k.Volume(), buf, k.Offset()); err != nil {
				c.recordResult(src, err)
				return owners // retry whole key next pass
			}
			c.recordResult(src, nil)
		}
		if err := t.cl.WriteAt(k.Server(), k.Volume(), buf, k.Offset()); err != nil {
			c.recordResult(t, err)
			continue
		}
		c.recordResult(t, nil)
		e.acked |= 1 << uint(id)
		t.dropHint(k) // the copy is fresher than any queued hint
		c.rebalanced.Add(1)
	}
	for _, id := range owners {
		if e.acked&(1<<uint(id)) == 0 {
			return owners // not fully covered yet; keep old copies as sources
		}
	}
	// Full coverage: the former owners' copies are redundant. Invalidate
	// where reachable so a later ownership flip cannot surface them.
	for _, t := range topo.nodes {
		bit := uint64(1) << uint(t.id)
		if e.acked&bit == 0 || slices.Contains(owners, t.id) {
			continue
		}
		if !t.serving() && t.getState() != nodeRemoved {
			continue // down: the demote sweep clears its bit
		}
		if _, err := t.cl.Invalidate(k.Server(), k.Volume(), k.Offset(), block.Size); err != nil {
			c.recordResult(t, err)
			continue
		}
		c.recordResult(t, nil)
		e.acked &^= bit
		c.staleDropped.Add(1)
	}
	return owners
}

// settleHealing clears the healing flag on nodes whose hint queue and
// shed union have fully settled.
func (c *Client) settleHealing(topo *topology) {
	for _, n := range topo.nodes {
		n.mu.Lock()
		if n.healing && len(n.hints) == 0 && len(n.shedSpans) == 0 {
			n.healing = false
		}
		n.mu.Unlock()
	}
}

// --- membership ------------------------------------------------------

// Join dials addr, adds it to the ring, and kicks the repair goroutine,
// whose replication sweep streams the dirty keys the new node now owns.
// Returns the new node's id.
func (c *Client) Join(addr string) (int, error) {
	if c.closed.Load() {
		return 0, ErrClosed
	}
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	topo := c.topo.Load()
	id := len(topo.nodes)
	if id >= 64 {
		return 0, ErrTooManyNodes
	}
	cl, err := appliance.DialWith(addr, c.cfg.Dial)
	if err != nil {
		return 0, fmt.Errorf("cluster: dial joining node %s: %w", addr, err)
	}
	nodes := append(append([]*node(nil), topo.nodes...), newNode(id, addr, cl, c.cfg.Breaker))
	c.topo.Store(&topology{ring: topo.ring.with(id), nodes: nodes})
	c.kickRepair()
	return id, nil
}

// Leave removes node id from the ring. The node keeps its slot (and its
// acked bits — it remains a re-replication *source* until its dirty
// blocks have streamed to their new owners), but takes no new traffic:
// it is not consulted for reads, and writes route to the shrunk ring.
// In write-back mode, call after the rebalance settles or accept that
// un-streamed sole copies become unavailable; Flush first for a clean
// departure.
func (c *Client) Leave(id int) error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	topo := c.topo.Load()
	if id < 0 || id >= len(topo.nodes) || !topo.ring.has(id) {
		return fmt.Errorf("cluster: node %d not in ring", id)
	}
	n := topo.nodes[id]
	n.mu.Lock()
	n.state = nodeRemoved
	// Pending deliveries are moot: the node serves nothing anymore.
	n.hints = make(map[block.Key]*hintOp)
	n.order = nil
	n.shedSpans = make(map[volID]span)
	n.mu.Unlock()
	c.topo.Store(&topology{ring: topo.ring.without(id), nodes: topo.nodes})
	c.kickRepair()
	return nil
}

// canSource reports whether the node may serve as a re-replication
// source: up or administratively removed (data intact either way), with
// a quiet breaker.
func (n *node) canSource() bool {
	n.mu.Lock()
	st := n.state
	n.mu.Unlock()
	return (st == nodeUp || st == nodeRemoved) && !n.br.Open()
}
