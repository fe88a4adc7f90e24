// Package cluster scales the appliance out to a replicated ring of
// cache nodes. The ring is fixed for the life of a Client: the nodes are
// Config.Nodes, with ids 0…N−1. A cluster.Client routes per-block over
// a rendezvous-hash ring, replicates every write to R nodes (W-of-R
// direct-ack quorum), falls reads through to the next replica when a
// node's circuit breaker is open, buffers writes for down replicas in
// hinted-handoff queues that drain idempotently on recovery, and
// re-replicates dirty blocks a crash left short of R. See DESIGN.md §13
// for the invariants.
//
// The Client implements appliance.BlockStore, so an appliance.Server can
// front the whole ring as a protocol gateway (cmd/appliance
// -cluster-peers).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appliance"
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/resilience"
)

var (
	// ErrAlignment rejects I/O that is not block-aligned: replication
	// bookkeeping (hints, dirty tracking, quorums) is per 512-byte
	// block, and partial-block merge across replicas is not defined.
	ErrAlignment = errors.New("cluster: offset and length must be multiples of the block size")
	// ErrNoReplica means no replica could serve a read: every owner was
	// down, breaker-open, or known not to hold the freshest copy. The
	// data is unavailable, never served stale.
	ErrNoReplica = errors.New("cluster: no eligible replica")
	// ErrWriteQuorum means fewer than WriteQuorum owners directly
	// acknowledged a write; the rest were buffered as hints.
	ErrWriteQuorum = errors.New("cluster: write quorum not reached")
	// ErrClosed rejects ops on a closed client.
	ErrClosed = errors.New("cluster: client closed")
	// ErrTooManyNodes bounds the ring (node acks are tracked in a 64-bit
	// set).
	ErrTooManyNodes = errors.New("cluster: at most 64 nodes")
	// ErrDrainStuck reports a Flush that could not empty the handoff
	// queues (a replica stayed unreachable).
	ErrDrainStuck = errors.New("cluster: handoff queues not drained")
)

// Config describes the ring.
type Config struct {
	// Nodes are the appliance addresses, in stable id order (required).
	Nodes []string
	// Replicas is R, how many nodes hold each block (default 2, clamped
	// to the node count).
	Replicas int
	// WriteQuorum is W, how many *direct* acknowledgements a write needs
	// to succeed — hinted deliveries never count (default 1, clamped to
	// Replicas).
	WriteQuorum int
	// WriteBack declares the nodes run write-back stores: dirty blocks
	// live only in node caches until Flush, so the client tracks per-key
	// acked-replica sets and re-replicates after failures. Leave false
	// for write-through nodes (the ensemble is always current; only
	// cache-staleness tracking is needed).
	WriteBack bool
	// PlacementBlocks is the placement-extent width in blocks: this many
	// consecutive blocks share a replica set, so contiguous I/O batches
	// to one node (default 128 = 64 KiB; must be a power of two).
	PlacementBlocks int
	// HandoffMax bounds each node's hint queue, in blocks; at the bound
	// hints are shed into the coarse shed-range union (default 4096).
	HandoffMax int
	// ProbeEvery paces the down-node prober and the repair sweep
	// (default 250 ms).
	ProbeEvery time.Duration
	// Dial configures every per-node appliance connection. Timeout
	// defaults to 2 s, MaxReconnects to 1 (the redial path is how a
	// restarted node is reattached), DialTimeout to 1 s.
	Dial appliance.DialOptions
	// Breaker configures every per-node health breaker (defaults:
	// Threshold 3, OpenFor 500 ms).
	Breaker resilience.BreakerConfig
}

func (cfg Config) withDefaults() Config {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas > len(cfg.Nodes) {
		cfg.Replicas = len(cfg.Nodes)
	}
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = 1
	}
	if cfg.WriteQuorum > cfg.Replicas {
		cfg.WriteQuorum = cfg.Replicas
	}
	if cfg.PlacementBlocks <= 0 {
		cfg.PlacementBlocks = 128
	}
	if cfg.HandoffMax <= 0 {
		cfg.HandoffMax = 4096
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 250 * time.Millisecond
	}
	if cfg.Dial.Timeout <= 0 {
		cfg.Dial.Timeout = 2 * time.Second
	}
	if cfg.Dial.DialTimeout <= 0 {
		cfg.Dial.DialTimeout = time.Second
	}
	if cfg.Dial.MaxReconnects <= 0 {
		cfg.Dial.MaxReconnects = 1
	}
	if cfg.Dial.ReconnectBackoff <= 0 {
		cfg.Dial.ReconnectBackoff = 10 * time.Millisecond
	}
	if cfg.Breaker.Threshold == 0 {
		cfg.Breaker.Threshold = 3
	}
	if cfg.Breaker.OpenFor <= 0 {
		cfg.Breaker.OpenFor = 500 * time.Millisecond
	}
	return cfg
}

// nStripes is the dirty-map / write-serialization stripe count.
const nStripes = 64

// stripe serializes all replication bookkeeping for the keys hashing to
// it: direct write fan-out, hint enqueue/supersede, hint drain, and
// re-replication of a key all run under its mutex.
type stripe struct {
	mu    sync.Mutex
	dirty map[block.Key]*dirtyEntry
}

// dirtyEntry tracks, for one write-back-dirty key, which nodes (bit =
// node id) are known to hold its freshest data. A node ack — direct
// write, drained hint, or re-replication copy — sets its bit; going
// down, missing a write, or shedding its hint clears it. A read may use
// a node for a dirty key only if its bit is set.
type dirtyEntry struct {
	acked uint64
}

// Client is the cluster-aware block client.
type Client struct {
	cfg     Config
	shift   uint    // log2(PlacementBlocks)
	nodes   []*node // indexed by id; the ring's members
	stripes [nStripes]stripe

	closed   atomic.Bool
	stop     chan struct{}
	kick     chan struct{}
	wg       sync.WaitGroup
	repairMu sync.Mutex // serializes repairPass (loop vs Flush's inline drain)

	// Scrape-time snapshot cache; see refreshSnap.
	snapMu sync.Mutex
	snap   ClusterStats

	// Counters (see ClusterStats for meanings).
	reads          atomic.Int64
	writes         atomic.Int64
	readBlocks     atomic.Int64
	writeBlocks    atomic.Int64
	fallthroughs   atomic.Int64
	quorumFailures atomic.Int64
	hinted         atomic.Int64
	drained        atomic.Int64
	rebalanced     atomic.Int64
	probes         atomic.Int64
}

// New dials every node and starts the background prober/repair
// goroutine. All nodes must be dialable at construction; nodes that die
// later are handled by failover.
func New(cfg Config) (*Client, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	if len(cfg.Nodes) > 64 {
		return nil, ErrTooManyNodes
	}
	cfg = cfg.withDefaults()
	if cfg.PlacementBlocks&(cfg.PlacementBlocks-1) != 0 {
		return nil, fmt.Errorf("cluster: PlacementBlocks %d is not a power of two", cfg.PlacementBlocks)
	}
	c := &Client{
		cfg:  cfg,
		stop: make(chan struct{}),
		kick: make(chan struct{}, 1),
	}
	for p := cfg.PlacementBlocks; p > 1; p >>= 1 {
		c.shift++
	}
	for i := range c.stripes {
		c.stripes[i].dirty = make(map[block.Key]*dirtyEntry)
	}
	for i, addr := range cfg.Nodes {
		cl, err := appliance.DialWith(addr, cfg.Dial)
		if err != nil {
			for _, n := range c.nodes {
				n.cl.Close()
			}
			return nil, fmt.Errorf("cluster: dial node %d (%s): %w", i, addr, err)
		}
		c.nodes = append(c.nodes, newNode(i, addr, cl, cfg.Breaker))
	}
	c.wg.Add(1)
	go c.repairLoop()
	return c, nil
}

// Close stops the repair goroutine and closes every node connection.
// Pending hints are lost — call Flush first to make the ensemble
// current.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(c.stop)
	c.wg.Wait()
	for _, n := range c.nodes {
		n.cl.Close()
	}
	return nil
}

// kickRepair nudges the repair goroutine without blocking.
func (c *Client) kickRepair() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// group maps a key to its placement group: PlacementBlocks consecutive
// blocks of one volume share a replica set.
func (c *Client) group(k block.Key) uint64 { return uint64(k) >> c.shift }

func stripeIdx(k block.Key) int { return int(mix64(uint64(k)) % nStripes) }

// blockRef is one 512-byte block of an op: its key and its slice of the
// caller's buffer.
type blockRef struct {
	key  block.Key
	data []byte
}

// checkRange validates the geometry of an n-byte op at off: ids the packed
// block.Key can hold, a non-empty block-aligned extent, and every block
// inside the addressable range. It runs before any bookkeeping, because
// block.MakeKey panics on what it rejects.
func checkRange(server, volume int, off uint64, n int) error {
	if server < 0 || server >= block.MaxServers || volume < 0 || volume >= block.MaxVolumes {
		return fmt.Errorf("cluster: server %d / volume %d out of range", server, volume)
	}
	if n <= 0 || off%block.Size != 0 || n%block.Size != 0 {
		return ErrAlignment
	}
	if n0, count := off/block.Size, uint64(n/block.Size); n0+count > block.MaxBlockNumber {
		return fmt.Errorf("cluster: block range [%d,%d) out of range", n0, n0+count)
	}
	return nil
}

// blockRefs splits one op's buffer into per-block refs, in order.
func blockRefs(server, volume int, p []byte, off uint64) ([]blockRef, error) {
	if err := checkRange(server, volume, off, len(p)); err != nil {
		return nil, err
	}
	refs := make([]blockRef, len(p)/block.Size)
	for i := range refs {
		refs[i] = blockRef{
			key:  block.MakeKey(server, volume, off/block.Size+uint64(i)),
			data: p[i*block.Size : (i+1)*block.Size],
		}
	}
	return refs, nil
}

// lockStripes locks every stripe the refs touch, in ascending index
// order (deadlock-free against any other multi-stripe holder), and
// returns the unlock.
func (c *Client) lockStripes(refs []blockRef) func() {
	var touched [nStripes]bool
	for _, r := range refs {
		touched[stripeIdx(r.key)] = true
	}
	for i := 0; i < nStripes; i++ {
		if touched[i] {
			c.stripes[i].mu.Lock()
		}
	}
	return func() {
		for i := nStripes - 1; i >= 0; i-- {
			if touched[i] {
				c.stripes[i].mu.Unlock()
			}
		}
	}
}

// ackedBit reports whether node id is known to hold key's freshest
// write-back data. Keys with no dirty entry are clean: the ensemble
// backend is current and any replica may serve them (modulo hints and
// shed ranges). Caller need not hold the stripe lock for reads — a
// racing write makes either answer correct.
func (c *Client) ackedBit(k block.Key, id int) bool {
	if !c.cfg.WriteBack {
		return true
	}
	s := &c.stripes[stripeIdx(k)]
	s.mu.Lock()
	e := s.dirty[k]
	ok := e == nil || e.acked&(1<<uint(id)) != 0
	s.mu.Unlock()
	return ok
}

// markAcked sets/clears node id's bit for key. Caller holds key's
// stripe lock. Only meaningful in write-back mode.
func (c *Client) markAcked(k block.Key, id int, holds bool) {
	if !c.cfg.WriteBack {
		return
	}
	s := &c.stripes[stripeIdx(k)]
	e := s.dirty[k]
	if e == nil {
		e = &dirtyEntry{}
		s.dirty[k] = e
	}
	if holds {
		e.acked |= 1 << uint(id)
	} else {
		e.acked &^= 1 << uint(id)
	}
}

// owners computes key's replica preference list into out.
func (c *Client) owners(k block.Key, out []int) []int {
	return ring(len(c.nodes)).replicas(c.group(k), c.cfg.Replicas, out)
}

// --- appliance.BlockStore surface -----------------------------------

// ReadAt reads len(p) bytes at off; see readRefs for replica selection.
func (c *Client) ReadAt(server, volume int, p []byte, off uint64) error {
	refs, err := blockRefs(server, volume, p, off)
	if err != nil {
		return err
	}
	c.reads.Add(1)
	return c.readRefs(refs)
}

// WriteAt replicates p to the key range's owners; see writeRefs.
func (c *Client) WriteAt(server, volume int, p []byte, off uint64) error {
	refs, err := blockRefs(server, volume, p, off)
	if err != nil {
		return err
	}
	c.writes.Add(1)
	return c.writeRefs(refs)
}

// ReadPinned always declines, as core.Store's does. It stays only because
// appliance.BlockStore names it, and leaves with ROADMAP.md item 1(f).
func (c *Client) ReadPinned(server, volume, n int, off uint64) *core.PinnedRead {
	return nil
}

// RotateEpoch broadcasts an epoch rotation to every serving node.
func (c *Client) RotateEpoch() error {
	return c.broadcast(func(n *node) error { return n.cl.RotateEpoch() })
}

// Invalidate drops cached copies of the range ring-wide. Unreachable
// nodes get the range recorded as a shed span — excluded from reads
// until the heal invalidates it on the node — so a stale cached copy
// can never resurface after recovery. Returns the maximum per-node
// dropped count (replicas hold duplicates; a sum would double-count).
func (c *Client) Invalidate(server, volume int, off uint64, length int) (int, error) {
	if c.closed.Load() {
		return 0, ErrClosed
	}
	if err := checkRange(server, volume, off, length); err != nil {
		return 0, err
	}
	lo := off / block.Size
	hi := (off + uint64(length) - 1) / block.Size
	// Drop client-side bookkeeping for the range first: pending hints
	// would re-deliver invalidated data, and dirty entries no longer
	// describe live cache state.
	c.invalidateLocal(server, volume, lo, hi)
	max := 0
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		n := n
		if !n.serving() {
			n.addSpan(server, volume, lo, hi)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			dropped, err := n.cl.Invalidate(server, volume, off, length)
			c.recordResult(n, err)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				// Could not reach it after all: exclude the range there
				// until the heal retries.
				n.addSpan(server, volume, lo, hi)
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			if dropped > max {
				max = dropped
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		c.kickRepair()
	}
	return max, firstErr
}

// invalidateLocal drops hints and dirty entries covering blocks
// [lo,hi] of (server,volume).
func (c *Client) invalidateLocal(server, volume int, lo, hi uint64) {
	for num := lo; num <= hi; num++ {
		k := block.MakeKey(server, volume, num)
		s := &c.stripes[stripeIdx(k)]
		s.mu.Lock()
		delete(s.dirty, k)
		for _, n := range c.nodes {
			n.dropHint(k)
		}
		s.mu.Unlock()
	}
}

// Flush makes the ensemble current: drain every handoff queue (a
// pending hint may hold a block's only fresh copy), then broadcast
// Flush to the serving nodes, then retire the dirty entries that are
// now clean.
func (c *Client) Flush() error {
	if c.closed.Load() {
		return ErrClosed
	}
	// Drain first. Bounded: a queue for a persistently-down node cannot
	// empty, and Flush must not hang forever on it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		depth := 0
		for _, n := range c.nodes {
			depth += n.hintDepth()
		}
		if depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: %d hints pending", ErrDrainStuck, depth)
		}
		c.repairPass()
		if c.closed.Load() {
			return ErrClosed
		}
		time.Sleep(10 * time.Millisecond)
	}
	flushed := uint64(0)
	err := c.broadcastCollect(func(n *node) error { return n.cl.Flush() }, &flushed)
	if err != nil {
		return err
	}
	// Every serving node flushed: any dirty key with a flushed holder is
	// now durable on the ensemble.
	if c.cfg.WriteBack {
		for i := range c.stripes {
			s := &c.stripes[i]
			s.mu.Lock()
			for k, e := range s.dirty {
				if e.acked&flushed != 0 {
					delete(s.dirty, k)
				}
			}
			s.mu.Unlock()
		}
	}
	return nil
}

// Stats aggregates the serving nodes' store counters — the gateway's
// OpStats answer. Every int64 field, gauges included, sums across nodes
// (core.Stats.Add); the latency snapshots stay zero, and unreachable nodes
// contribute nothing.
func (c *Client) Stats() core.Stats {
	var agg core.Stats
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		n := n
		if !n.serving() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := n.cl.Stats()
			c.recordResult(n, err)
			if err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			agg.Add(st)
		}()
	}
	wg.Wait()
	return agg
}

// broadcast runs op against every serving node in parallel and returns
// the first error.
func (c *Client) broadcast(op func(n *node) error) error {
	return c.broadcastCollect(op, nil)
}

// broadcastCollect is broadcast plus an optional bitmask of the node
// ids whose op succeeded.
func (c *Client) broadcastCollect(op func(n *node) error, okMask *uint64) error {
	if c.closed.Load() {
		return ErrClosed
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		n := n
		if !n.serving() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := op(n)
			c.recordResult(n, err)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			if okMask != nil {
				*okMask |= 1 << uint(n.id)
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// recordResult feeds an op outcome into the node's breaker and demotes
// the node when the breaker trips: a tripped node is assumed to have
// lost its cache (the conservative reading of "unreachable"), so its
// acked bits are queued for wiping before it may serve again.
func (c *Client) recordResult(n *node, err error) {
	n.br.Record(err)
	if err == nil || !n.br.Open() {
		return
	}
	n.mu.Lock()
	wasUp := n.state == nodeUp
	if wasUp {
		n.state = nodeDown
		n.downs++
		n.demotePending.Store(true)
	}
	n.mu.Unlock()
	if wasUp {
		c.kickRepair()
	}
}
