// The replicated data path: write fan-out with W-of-R direct-ack
// quorums and hint buffering, and read replica selection with
// fall-through.
//
// Freshness invariant: after a write completes, every owner either (a)
// directly acknowledged the data, (b) has a pending hint for the key,
// or (c) had its hint shed into the shed-range union (and, in
// write-back mode, its acked bit cleared). Reads exclude (b), (c), and
// — for dirty keys — nodes without the acked bit, so a successful read
// can never return data older than the last acknowledged write.
package cluster

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/block"
)

// mergeCap bounds how many bytes of adjacent blocks a single extent
// accumulates when batching per node. It is far under the wire's
// MaxIOBytes, so every extent is one frame.
const mergeCap = 512 * 1024

// nodePlan is one node's share of an op: the ref indices routed to it.
type nodePlan struct {
	n    *node
	idxs []int
}

// planFor lazily creates the plan entry for a node.
func planFor(plans map[int]*nodePlan, n *node) *nodePlan {
	p := plans[n.id]
	if p == nil {
		p = &nodePlan{n: n}
		plans[n.id] = p
	}
	return p
}

// extent is one run of a node's share of an op: blocks at adjacent ref
// indices, which are consecutive keys and one contiguous slice of the
// caller's buffer, since the refs of an op come from one buffer in order.
type extent struct {
	key  block.Key // the run's first block
	data []byte
}

// buildExtents turns a node's ref indices (ascending) into extents of at
// most mergeCap bytes. A share with another node's groups in between —
// a request over three or more placement groups — is several extents.
func buildExtents(refs []blockRef, idxs []int) []extent {
	exts := make([]extent, 0, len(idxs))
	prev := -2
	for _, i := range idxs {
		if last := len(exts) - 1; i == prev+1 && len(exts[last].data) < mergeCap {
			exts[last].data = exts[last].data[:len(exts[last].data)+block.Size]
		} else {
			exts = append(exts, extent{key: refs[i].key, data: refs[i].data})
		}
		prev = i
	}
	return exts
}

// sendExtents ships a node's extents one scalar ReadAt or WriteAt each,
// in order, stopping at the first error.
func sendExtents(n *node, exts []extent, write bool) error {
	op := n.cl.ReadAt
	if write {
		op = n.cl.WriteAt
	}
	for _, e := range exts {
		if err := op(e.key.Server(), e.key.Volume(), e.data, e.key.Offset()); err != nil {
			return err
		}
	}
	return nil
}

// hintBlockLocked buffers ref for n and clears n's acked bit — the node
// no longer holds the freshest copy until the hint drains. Caller holds
// ref's stripe lock.
func (c *Client) hintBlockLocked(n *node, ref blockRef) {
	n.offerHint(ref.key, append([]byte(nil), ref.data...), c.cfg.HandoffMax)
	c.hinted.Add(1)
	c.markAcked(ref.key, n.id, false)
}

// writeRefs fans the blocks out to their owners: direct batched writes
// to serving nodes, hints for the rest. Per block, at least
// WriteQuorum owners must acknowledge directly or the op fails with
// ErrWriteQuorum (hinted copies are still delivered eventually either
// way). The refs' stripe locks are held across the fan-out, serializing
// same-key writes, hint supersede, drain, and re-replication against
// each other.
func (c *Client) writeRefs(refs []blockRef) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if len(refs) == 0 {
		return nil
	}
	unlock := c.lockStripes(refs)
	defer unlock()

	plans := make(map[int]*nodePlan)
	var owners []int
	lastGroup := ^uint64(0)
	for i, ref := range refs {
		if g := c.group(ref.key); g != lastGroup {
			owners = c.owners(ref.key, owners)
			lastGroup = g
		}
		for _, id := range owners {
			n := c.nodes[id]
			if n.serving() {
				p := planFor(plans, n)
				p.idxs = append(p.idxs, i)
			} else {
				c.hintBlockLocked(n, ref)
			}
		}
	}

	acks := make([]int, len(refs))
	var mu sync.Mutex // serializes ack/hint/dirty bookkeeping across node goroutines
	var wg sync.WaitGroup
	for _, p := range plans {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := sendExtents(p.n, buildExtents(refs, p.idxs), true)
			c.recordResult(p.n, err)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				for _, i := range p.idxs {
					acks[i]++
					c.markAcked(refs[i].key, p.n.id, true)
					// Any pending hint predates this write: superseded.
					p.n.dropHint(refs[i].key)
				}
				return
			}
			for _, i := range p.idxs {
				c.hintBlockLocked(p.n, refs[i])
			}
		}()
	}
	wg.Wait()
	c.writeBlocks.Add(int64(len(refs)))

	need := c.cfg.WriteQuorum
	for i, a := range acks {
		if a < need {
			c.quorumFailures.Add(1)
			c.kickRepair()
			return fmt.Errorf("%w: block %v got %d/%d direct acks", ErrWriteQuorum, refs[i].key, a, need)
		}
	}
	return nil
}

// readEligible reports whether node id may serve key right now: it must
// be serving, hold no pending hint or shed range covering the key, and
// — for a write-back-dirty key — carry the acked bit.
func (c *Client) readEligible(n *node, key block.Key) bool {
	if !n.serving() {
		return false
	}
	if n.pendingHint(key) || n.inShed(key) {
		return false
	}
	return c.ackedBit(key, n.id)
}

// readRefs fills every ref from the first eligible replica in its
// preference order, falling through to the next replica when a node
// fails mid-read. Takes no stripe locks: eligibility checks are
// point-in-time, and the freshness invariant (see package comment)
// makes any eligible replica safe.
func (c *Client) readRefs(refs []blockRef) error {
	if c.closed.Load() {
		return ErrClosed
	}
	if len(refs) == 0 {
		return nil
	}
	pending := make([]int, len(refs))
	for i := range pending {
		pending[i] = i
	}
	tried := make([]uint64, len(refs))

	for pass := 0; len(pending) > 0; pass++ {
		if pass > c.cfg.Replicas {
			return fmt.Errorf("%w: exhausted %d fall-through passes", ErrNoReplica, pass)
		}
		plans := make(map[int]*nodePlan)
		var owners []int
		lastGroup := ^uint64(0)
		for _, i := range pending {
			ref := refs[i]
			if g := c.group(ref.key); g != lastGroup {
				owners = c.owners(ref.key, owners)
				lastGroup = g
			}
			chosen := -1
			for _, id := range owners {
				if tried[i]&(1<<uint(id)) != 0 {
					continue
				}
				if c.readEligible(c.nodes[id], ref.key) {
					chosen = id
					break
				}
			}
			if chosen < 0 {
				return fmt.Errorf("%w: block %v (every owner down, hinted, shed, or behind)", ErrNoReplica, ref.key)
			}
			tried[i] |= 1 << uint(chosen)
			p := planFor(plans, c.nodes[chosen])
			p.idxs = append(p.idxs, i)
		}

		var mu sync.Mutex
		var failed []int
		var wg sync.WaitGroup
		for _, p := range plans {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				err := sendExtents(p.n, buildExtents(refs, p.idxs), false)
				c.recordResult(p.n, err)
				if err != nil {
					mu.Lock()
					failed = append(failed, p.idxs...)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if len(failed) > 0 {
			c.fallthroughs.Add(int64(len(failed)))
			slices.Sort(failed)
		}
		pending = failed
	}
	c.readBlocks.Add(int64(len(refs)))
	return nil
}
