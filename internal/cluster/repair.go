// The background repair engine: one goroutine that probes down nodes,
// wipes the acked bits of nodes whose caches must be presumed lost,
// heals shed ranges, drains hinted handoff, and re-replicates dirty
// blocks that a crash left short of R: the sweep copies each one from a
// surviving owner to the owners that lost it.
package cluster

import (
	"time"

	"repro/internal/appliance"
	"repro/internal/block"
)

// repairLoop runs repairPass on the ProbeEvery cadence, or sooner when
// kicked by a failure.
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
	c.demoteSweep()
	c.probeDown()
	for _, n := range c.nodes {
		if c.closed.Load() {
			return
		}
		if n.serving() {
			c.healSpans(n)
			c.drainNode(n)
		}
	}
	if c.cfg.WriteBack {
		c.replicationSweep()
	}
	c.settleHealing()
}

// demoteSweep clears the acked bits of every node that went down since
// the last pass: its cache contents must be presumed lost, so it no
// longer counts as holding any dirty block's freshest copy. Runs before
// probeDown (which skips demote-pending nodes), so a node can never
// come back up with pre-crash bits still standing.
func (c *Client) demoteSweep() {
	var mask uint64
	var pending []*node
	for _, n := range c.nodes {
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
func (c *Client) probeDown() {
	for _, n := range c.nodes {
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
// replication after a crash demotion: copy from an owner still holding
// the freshest data to each owner that lost it. Acked bits are only ever
// set on owners — by direct writes, hint drains and these copies — so
// the source is always an owner and no other node holds a copy to drop.
func (c *Client) replicationSweep() {
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
			owners = c.repairKey(k, owners)
		}
	}
}

// repairKey restores one dirty key to full replication; see
// replicationSweep. Holds the key's stripe lock across the copy, which
// guarantees the copied bytes are the freshest acked version.
func (c *Client) repairKey(k block.Key, owners []int) []int {
	s := &c.stripes[stripeIdx(k)]
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.dirty[k]
	if e == nil || e.acked == 0 {
		// Deleted meanwhile, or every holder crashed: nothing to copy from.
		return owners
	}
	owners = c.owners(k, owners)
	var src *node
	for _, id := range owners {
		if t := c.nodes[id]; e.acked&(1<<uint(id)) != 0 && t.serving() {
			src = t
			break
		}
	}
	var buf []byte
	for _, id := range owners {
		t := c.nodes[id]
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
	return owners
}

// settleHealing clears the healing flag on nodes whose hint queue and
// shed union have fully settled.
func (c *Client) settleHealing() {
	for _, n := range c.nodes {
		n.mu.Lock()
		if n.healing && len(n.hints) == 0 && len(n.shedSpans) == 0 {
			n.healing = false
		}
		n.mu.Unlock()
	}
}
