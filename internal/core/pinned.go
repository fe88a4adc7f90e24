package core

import (
	"time"

	"repro/internal/block"
)

// PinnedRead is a zero-copy view of cache-resident blocks returned by
// Store.ReadPinned. The views alias the cache's own frame buffers: they
// are immutable (concurrent writes to a pinned block go copy-on-write
// into a fresh frame) and stay valid until Release, which must be called
// exactly once — typically after the bytes have been written to a wire.
type PinnedRead struct {
	views [][]byte
	// pins lists the pinned slots in shard order (not view order), so
	// Release visits each shard once, ascending.
	pins []slotPin

	// Backing for views and pins up to a 4 KiB request, so that the
	// PinnedRead is the read's only allocation.
	viewBuf [block.BlocksPerPage][]byte
	pinBuf  [block.BlocksPerPage]slotPin
}

// slotPin is one reference ReadPinned took on a shard slot, for view idx.
type slotPin struct {
	sh   *shard
	slot uint32
	idx  uint32
}

// Views returns the pinned block frames in request order. Callers must
// not mutate or retain them past Release.
func (pr *PinnedRead) Views() [][]byte { return pr.views }

// Bytes returns the total pinned payload size.
func (pr *PinnedRead) Bytes() int { return len(pr.views) * block.Size }

// Release drops the pins. Slots evicted or replaced while pinned are
// freed here, on the last unpin.
func (pr *PinnedRead) Release() {
	pr.unpin(0, true)
	pr.views = nil
}

// unpin drops the shard pins of the views from keep on, one critical
// section per shard. served is false when those views were never handed
// out (ReadPinned cutting back to the all-hit prefix): their hit
// accounting is then taken back too.
func (pr *PinnedRead) unpin(keep int, served bool) {
	kept := pr.pins[:0]
	for lo := 0; lo < len(pr.pins); {
		sh, hi, dropped := pr.pins[lo].sh, lo, int64(0)
		for ; hi < len(pr.pins) && pr.pins[hi].sh == sh; hi++ {
			if p := pr.pins[hi]; int(p.idx) < keep {
				kept = append(kept, p)
				continue
			}
			if dropped++; dropped == 1 {
				sh.mu.Lock()
			}
			sh.unpinLocked(pr.pins[hi].slot)
		}
		if dropped > 0 {
			if !served {
				sh.countPinnedLocked(-dropped)
			}
			sh.mu.Unlock()
		}
		lo = hi
	}
	pr.pins = kept
}

// countPinnedLocked accounts n blocks served (or, negative, not served
// after all) through ReadPinned.
func (sh *shard) countPinnedLocked(n int64) {
	sh.stats.Reads += n
	sh.stats.ReadHits += n
	sh.stats.PinnedReads += n
}

// ReadPinned serves the longest all-hit prefix of the request
// [off, off+n) straight from the cache as pinned zero-copy frame views,
// or nil when nothing is pinnable (bad geometry, a closed store, or a
// miss on the very first block) — the caller then falls back
// to ReadAt for the whole request. On a partial prefix the caller writes
// the views first and issues a ReadAt for the remaining tail; hit/byte
// accounting and SieveStore-D access logging for the pinned blocks happen
// here, so the two halves together count exactly like one ReadAt. The
// whole-call latency histogram is observed only when the prefix covers
// the full request (a partial prefix's tail ReadAt records the op),
// keeping read-op counts at one per request.
func (s *Store) ReadPinned(server, volume, n int, off uint64) *PinnedRead {
	if checkIO(server, volume, off, n) != nil {
		return nil
	}
	if s.closed.Load() {
		return nil
	}
	var start time.Duration
	if s.opts.TrackLatency {
		start = time.Since(s.monoBase)
	}
	s.maybeRotate()
	if s.closed.Load() {
		return nil
	}
	nBlocks := n / block.Size
	key0 := block.MakeKey(server, volume, off/block.Size)
	pr := &PinnedRead{}
	pr.views, pr.pins = pr.viewBuf[:0], pr.pinBuf[:0]
	if nBlocks > len(pr.viewBuf) {
		pr.views = make([][]byte, nBlocks)
	}
	pr.views = pr.views[:nBlocks]

	// Pin optimistically, one critical section per shard: every resident
	// block up to the shard's first miss. prefix ends at the request's
	// first miss; a block pinned beyond it is handed back below, and its
	// recency bump repeated at once by the caller's tail ReadAt, which
	// walks the same blocks in the same order — so every shard's order
	// ends where a block-by-block walk that stopped at the miss leaves it.
	var runBuf [runsInline]uint64
	runs := s.pageRuns(runBuf[:0], key0, nBlocks)
	prefix := nBlocks
	for lo := 0; lo < len(runs); {
		sh, hi := s.shardRuns(runs, lo)
		sh.mu.Lock()
		pinned := len(pr.pins)
	visit:
		for _, w := range runs[lo:hi] {
			i, end, pk, b := runPage(key0, w)
			for pg := sh.tab.Page(pk); i < end; i, b = i+1, b+1 {
				slot := pg[b] - 1
				if pg[b] == 0 {
					prefix = min(prefix, i)
					break visit
				}
				sh.tab.Hit(slot)
				sh.pinLocked(slot)
				pr.views[i] = sh.frame(slot)
				pr.pins = append(pr.pins, slotPin{sh: sh, slot: slot, idx: uint32(i)})
			}
		}
		sh.countPinnedLocked(int64(len(pr.pins) - pinned))
		sh.mu.Unlock()
		lo = hi
	}
	if prefix < nBlocks {
		pr.unpin(prefix, false)
		pr.views = pr.views[:prefix]
	}
	if prefix == 0 {
		return nil
	}
	// Log exactly the blocks served here; the caller's tail ReadAt logs
	// (and counts) the rest itself. Tenant accounting follows the same
	// split: every pinned block is an access and a hit for its tenant.
	s.logAccess(server, volume, off/block.Size, len(pr.views))
	s.tenantTick()
	s.tenantAccess(server, volume, int64(len(pr.views)), false)
	s.tenantHits(server, volume, int64(len(pr.views)))
	if s.opts.TrackLatency && prefix == nBlocks {
		s.histRead.Observe(time.Since(s.monoBase) - start)
	}
	return pr
}
