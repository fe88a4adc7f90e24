package cluster

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
)

// The cluster chaos suite: N=3, R=2 write-back over one shared
// ensemble, concurrent readers/writers, and a crash loop that kills and
// cold-restarts one node at a time mid-load. Verified invariants:
//
//   - zero lost acked writes — after the ring heals, every block reads
//     back a version ≥ the highest version whose write returned success;
//   - no stale reads past the version floor — every successful read
//     during the storm already satisfies that bound;
//   - automatic re-replication to full R — the run ends only when the
//     repair engine reports no under-replicated keys and empty handoff
//     queues, with no manual intervention.
//
// Ops may fail during a crash (unavailability is allowed); correctness
// is asserted on whatever succeeds. A write whose outcome is unknown
// (error: the data may or may not have reached a quorum) taints its
// block — from then on only the upper-bound check holds there, exactly
// like the single-store chaos harness.

const (
	clusterChaosBlocks  = 96
	clusterChaosWorkers = 6
)

// ccPattern fills a block with 8-byte (index, version) cells.
func ccPattern(buf []byte, idx int, version uint32) {
	for c := 0; c < block.Size/8; c++ {
		binary.LittleEndian.PutUint32(buf[c*8:], uint32(idx))
		binary.LittleEndian.PutUint32(buf[c*8+4:], version)
	}
}

// ccDecode verifies a uniform (idx, version) pattern and returns the
// version.
func ccDecode(idx int, buf []byte) (uint32, error) {
	if binary.LittleEndian.Uint32(buf[0:]) != uint32(idx) {
		return 0, errors.New("block content belongs to a different index")
	}
	version := binary.LittleEndian.Uint32(buf[4:])
	for c := 1; c < block.Size/8; c++ {
		if binary.LittleEndian.Uint32(buf[c*8:]) != uint32(idx) ||
			binary.LittleEndian.Uint32(buf[c*8+4:]) != version {
			return 0, errors.New("torn block: cells disagree")
		}
	}
	return version, nil
}

type ccBlock struct {
	attempted atomic.Uint32 // highest version a write was issued for
	floor     atomic.Uint32 // highest version whose write was acked
	tainted   atomic.Uint32 // writes with unknown outcome
}

func TestClusterChaosKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run is seconds long")
	}
	watchdog := time.AfterFunc(2*time.Minute, func() {
		panic("cluster chaos: run did not complete — deadlock suspected")
	})
	defer watchdog.Stop()

	be, nodes, cl := newTestRing(t, 3, Config{
		Replicas:        2,
		WriteQuorum:     1,
		WriteBack:       true,
		PlacementBlocks: 4,
		HandoffMax:      4096,
		ProbeEvery:      20 * time.Millisecond,
	})

	var blocks [clusterChaosBlocks]ccBlock
	var wrote, readOK, opErrs atomic.Int64

	// Prefill every block at version 1 while the ring is healthy. A third
	// of the blocks (idx%3 == 0) stay cold from here on — never
	// rewritten, so after a crash wipes a replica, only the background
	// re-replication sweep can restore them to full R (hinted handoff
	// only covers blocks written during the outage).
	{
		buf := make([]byte, block.Size)
		for idx := range blocks {
			ccPattern(buf, idx, 1)
			if err := cl.WriteAt(0, 0, buf, blockAt(uint64(idx))); err != nil {
				t.Fatalf("prefill block %d: %v", idx, err)
			}
			blocks[idx].attempted.Store(1)
			blocks[idx].floor.Store(1)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < clusterChaosWorkers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 9973))
			buf := make([]byte, block.Size)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Each worker owns a disjoint stride of blocks; reads and
				// writes stay inside it so version accounting needs no lock.
				idx := w + clusterChaosWorkers*rng.Intn(clusterChaosBlocks/clusterChaosWorkers)
				b := &blocks[idx]
				if idx%3 != 0 && i%4 == 0 {
					v := b.attempted.Load() + 1
					b.attempted.Store(v)
					ccPattern(buf, idx, v)
					if err := cl.WriteAt(0, 0, buf, blockAt(uint64(idx))); err != nil {
						b.tainted.Add(1)
						opErrs.Add(1)
					} else {
						b.floor.Store(v)
						wrote.Add(1)
					}
					continue
				}
				preFloor := b.floor.Load()
				preTaint := b.tainted.Load()
				if preFloor == 0 {
					continue
				}
				if err := cl.ReadAt(0, 0, buf, blockAt(uint64(idx))); err != nil {
					opErrs.Add(1)
					continue
				}
				v, err := ccDecode(idx, buf)
				if err != nil {
					t.Errorf("block %d: %v", idx, err)
					return
				}
				if preTaint == 0 && v < preFloor {
					t.Errorf("stale read: block %d version %d < floor %d", idx, v, preFloor)
					return
				}
				if ceil := b.attempted.Load(); v > ceil {
					t.Errorf("impossible read: block %d version %d > attempted %d", idx, v, ceil)
					return
				}
				readOK.Add(1)
			}
		}()
	}

	// The crash loop: kill one node, let the cluster run degraded, cold
	// restart it, let the repair engine reattach it, move to the next.
	crashRng := rand.New(rand.NewSource(42))
	crashDone := make(chan struct{})
	go func() {
		defer close(crashDone)
		for round := 0; round < 6; round++ {
			select {
			case <-stop:
				return
			default:
			}
			victim := nodes[crashRng.Intn(len(nodes))]
			victim.kill()
			time.Sleep(400 * time.Millisecond)
			victim.restart()
			time.Sleep(400 * time.Millisecond)
		}
	}()
	<-crashDone
	close(stop)
	wg.Wait()
	for _, n := range nodes {
		n.restart() // in case the loop exited with a node down
	}
	if t.Failed() {
		return
	}

	// Heal: the repair engine must reach full replication on its own.
	st := settle(t, cl, 30*time.Second)
	if wrote.Load() == 0 || readOK.Load() == 0 {
		t.Fatalf("load never got traction: %d writes, %d reads ok, %d errors",
			wrote.Load(), readOK.Load(), opErrs.Load())
	}
	downs := int64(0)
	for _, n := range st.Nodes {
		downs += n.Downs
	}
	if downs == 0 || st.Hinted == 0 || st.Probes == 0 {
		t.Fatalf("chaos did not exercise failover paths: %+v", st)
	}
	if st.Rebalanced == 0 {
		t.Fatal("no re-replication happened despite node crashes wiping acked replicas")
	}

	// Acked bits are set only on a key's owners — by direct writes, hint
	// drains and sweep copies — so the sweep never has a non-owner copy
	// to drop.
	var owners []int
	for i := range cl.stripes {
		s := &cl.stripes[i]
		s.mu.Lock()
		for k, e := range s.dirty {
			owners = cl.owners(k, owners)
			var mask uint64
			for _, id := range owners {
				mask |= 1 << uint(id)
			}
			if e.acked&^mask != 0 {
				t.Errorf("block %v: acked mask %b holds a non-owner (owners %v)", k, e.acked, owners)
			}
		}
		s.mu.Unlock()
	}

	// Zero lost acked writes: every untainted block reads back ≥ floor.
	buf := make([]byte, block.Size)
	for idx := range blocks {
		b := &blocks[idx]
		if b.floor.Load() == 0 {
			continue
		}
		if err := cl.ReadAt(0, 0, buf, blockAt(uint64(idx))); err != nil {
			t.Errorf("post-heal read of block %d: %v", idx, err)
			continue
		}
		v, err := ccDecode(idx, buf)
		if err != nil {
			t.Errorf("post-heal block %d: %v", idx, err)
			continue
		}
		if b.tainted.Load() == 0 && v < b.floor.Load() {
			t.Errorf("lost acked write: block %d version %d < floor %d", idx, v, b.floor.Load())
		}
		if v > b.attempted.Load() {
			t.Errorf("block %d version %d > attempted %d", idx, v, b.attempted.Load())
		}
	}

	// And the ensemble itself converges after Flush.
	if err := cl.Flush(); err != nil {
		t.Fatalf("post-chaos flush: %v", err)
	}
	for idx := range blocks {
		b := &blocks[idx]
		if b.floor.Load() == 0 || b.tainted.Load() > 0 {
			continue
		}
		if err := be.ReadAt(0, 0, buf, blockAt(uint64(idx))); err != nil {
			t.Errorf("backend read of block %d: %v", idx, err)
			continue
		}
		v, err := ccDecode(idx, buf)
		if err != nil {
			t.Errorf("backend block %d: %v", idx, err)
			continue
		}
		if v < b.floor.Load() {
			t.Errorf("ensemble lost acked write: block %d version %d < floor %d", idx, v, b.floor.Load())
		}
	}
	t.Logf("chaos: %d writes acked, %d reads ok, %d op errors, %d downs, %d hinted, %d drained, %d rebalanced",
		wrote.Load(), readOK.Load(), opErrs.Load(), downs, st.Hinted, st.Drained, st.Rebalanced)
}
