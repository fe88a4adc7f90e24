package cluster

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/resilience"
)

func mkNode(t *testing.T) *node {
	t.Helper()
	return newNode(0, "test", nil, resilience.BreakerConfig{Threshold: 3, OpenFor: time.Second})
}

func key(n uint64) block.Key { return block.MakeKey(0, 0, n) }

// The queue keeps exactly one hint per key — the newest — so drain
// order per key is trivially the write order and replay cannot regress.
func TestHintReplaceInPlaceKeepsNewest(t *testing.T) {
	n := mkNode(t)
	n.offerHint(key(1), []byte("v1"), 100)
	if d := n.hintDepth(); d != 1 {
		t.Fatalf("depth %d after first offer, want 1", d)
	}
	n.offerHint(key(1), []byte("v2"), 100)
	if d := n.hintDepth(); d != 1 {
		t.Fatalf("depth %d after replace, want 1", d)
	}
	data, ok := n.takeHint(key(1))
	if !ok || !bytes.Equal(data, []byte("v2")) {
		t.Fatalf("takeHint = %q, %v; want newest v2", data, ok)
	}
}

func TestHintDrainOrderIsFIFOAcrossKeys(t *testing.T) {
	n := mkNode(t)
	for i := uint64(1); i <= 3; i++ {
		n.offerHint(key(i), []byte{byte(i)}, 100)
	}
	// Superseding key 2 must not reorder it.
	n.offerHint(key(2), []byte{22}, 100)
	var got []uint64
	for {
		k, ok := n.popDrainKey()
		if !ok {
			break
		}
		got = append(got, k.Number())
		n.confirmHint(k)
	}
	want := []uint64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

func TestHintRequeuePutsKeyBackFirst(t *testing.T) {
	n := mkNode(t)
	n.offerHint(key(1), []byte{1}, 100)
	n.offerHint(key(2), []byte{2}, 100)
	k, _ := n.popDrainKey()
	n.requeue(k) // delivery failed
	k2, ok := n.popDrainKey()
	if !ok || k2 != k {
		t.Fatalf("after requeue popped %v, want %v again", k2, k)
	}
}

// The in-flight drain window: the entry stays visible (pendingHint) from
// pop until confirm, so reads keep excluding the key at this node while
// the delivery is on the wire.
func TestHintVisibleUntilConfirmed(t *testing.T) {
	n := mkNode(t)
	n.offerHint(key(9), []byte{9}, 100)
	k, _ := n.popDrainKey()
	if !n.pendingHint(k) {
		t.Fatal("hint invisible while delivery in flight")
	}
	n.confirmHint(k)
	if n.pendingHint(k) {
		t.Fatal("hint still pending after confirm")
	}
	if n.drains != 1 {
		t.Fatalf("drains = %d, want 1", n.drains)
	}
}

// At the bound the queue stops growing: further offers shed into the
// coarse span union and bump the shed counter, keeping handoff memory
// bounded no matter how long a node stays down.
func TestHintQueueBoundShedsIntoSpans(t *testing.T) {
	n := mkNode(t)
	const max = 4
	for i := uint64(0); i < 10; i++ {
		n.offerHint(key(i), []byte{byte(i)}, max)
	}
	if d := n.hintDepth(); d != max {
		t.Fatalf("depth %d, want bound %d", d, max)
	}
	n.mu.Lock()
	sheds := n.sheds
	n.mu.Unlock()
	if sheds != 6 {
		t.Fatalf("sheds = %d, want 6", sheds)
	}
	for i := uint64(max); i < 10; i++ {
		if !n.inShed(key(i)) {
			t.Fatalf("shed key %d not covered by span union", i)
		}
	}
	// Replacing a still-queued key works even at the bound: no shed, no
	// growth, and the queue holds the new bytes.
	n.offerHint(key(0), []byte{0xFF}, max)
	n.mu.Lock()
	sheds = n.sheds
	n.mu.Unlock()
	if d := n.hintDepth(); d != max || sheds != 6 {
		t.Fatalf("replace at bound: depth %d sheds %d, want %d and 6", d, sheds, max)
	}
	if data, ok := n.takeHint(key(0)); !ok || !bytes.Equal(data, []byte{0xFF}) {
		t.Fatalf("replace at bound: queued %v, %v; want [255]", data, ok)
	}
}

func TestShedSpanClearRespectsWidening(t *testing.T) {
	n := mkNode(t)
	n.addSpan(0, 0, 10, 20)
	snap := n.takeSpans()
	// A new shed widens the span before the heal finishes...
	n.addSpan(0, 0, 5, 8)
	n.clearSpan(volID{0, 0}, snap[volID{0, 0}])
	// ...so the clear must be a no-op and the widened span must survive.
	if !n.inShed(key(6)) {
		t.Fatal("widened shed span lost by a stale clear")
	}
}

// Integration: a down node's hints drain on recovery, duplicates are
// harmless, and the drained data is the newest version.
func TestHandoffDrainIdempotentOnRecovery(t *testing.T) {
	_, nodes, cl := newTestRing(t, 2, Config{Replicas: 2, WriteQuorum: 1, WriteBack: true, PlacementBlocks: 4})
	buf := make([]byte, block.Size)

	nodes[1].kill()
	for v := byte(1); v <= 3; v++ {
		for i := range buf {
			buf[i] = v
		}
		if err := cl.WriteAt(0, 0, buf, blockAt(7)); err != nil {
			t.Fatalf("write v%d with node down: %v", v, err)
		}
	}
	waitNodeState(t, cl, 1, "down", 5*time.Second)
	st := cl.ClusterStats()
	if st.Nodes[1].HintDepth != 1 {
		t.Fatalf("hint depth %d after 3 superseding writes, want 1", st.Nodes[1].HintDepth)
	}

	nodes[1].restart()
	settle(t, cl, 10*time.Second)

	// Duplicate delivery: re-queue the same (already delivered) bytes and
	// drain again — replaying a hint must be a harmless overwrite.
	for i := range buf {
		buf[i] = 3
	}
	cl.nodes[1].offerHint(block.MakeKey(0, 0, 7), append([]byte(nil), buf...), 100)
	settle(t, cl, 10*time.Second)

	// The recovered node must now serve the newest version: kill the
	// node that took the writes directly — the read's fall-through lands
	// on node 1.
	nodes[0].kill()
	got := make([]byte, block.Size)
	if err := cl.ReadAt(0, 0, got, blockAt(7)); err != nil {
		t.Fatalf("read from drained replica: %v", err)
	}
	for i, b := range got {
		if b != 3 {
			t.Fatalf("drained replica byte %d = %d, want newest version 3", i, b)
		}
	}
	nodes[0].restart()
}

// A long outage with a tiny queue: most hints shed, yet after recovery
// the heal + re-replication restore every block — bounded memory never
// costs correctness.
func TestHandoffShedHealRestoresAllBlocks(t *testing.T) {
	_, nodes, cl := newTestRing(t, 2, Config{
		Replicas: 2, WriteQuorum: 1, WriteBack: true, PlacementBlocks: 4, HandoffMax: 8,
	})
	const blocks = 64
	buf := make([]byte, block.Size)

	nodes[1].kill()
	for n := uint64(0); n < blocks; n++ {
		for i := range buf {
			buf[i] = byte(n + 1)
		}
		if err := cl.WriteAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatalf("write block %d: %v", n, err)
		}
	}
	st := cl.ClusterStats()
	if st.Nodes[1].HintDepth > 8 {
		t.Fatalf("hint depth %d exceeds bound 8", st.Nodes[1].HintDepth)
	}
	if st.Nodes[1].Sheds == 0 {
		t.Fatal("expected sheds with a tiny queue bound")
	}

	nodes[1].restart()
	settle(t, cl, 15*time.Second)

	nodes[0].kill()
	got := make([]byte, block.Size)
	for n := uint64(0); n < blocks; n++ {
		if err := cl.ReadAt(0, 0, got, blockAt(n)); err != nil {
			t.Fatalf("read block %d from healed replica: %v", n, err)
		}
		for i, b := range got {
			if b != byte(n+1) {
				t.Fatalf("block %d byte %d = %d, want %d after shed heal", n, i, b, byte(n+1))
			}
		}
	}
	nodes[0].restart()
}
