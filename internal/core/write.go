package core

import (
	"repro/internal/block"
)

// WriteAt writes p through to the backend, updating cached blocks in place
// and offering missing blocks to the sieve. The backend write happens with
// no lock held. The written key range is reserved in the shards' in-flight
// tables first — in shard order, all-or-nothing within each shard — which
// serializes overlapping writes, so backend order and cache order cannot
// invert, and lets concurrent read misses on these keys coalesce onto the
// written data instead of racing the write with a backend fetch.
func (s *Store) WriteAt(server, volume int, p []byte, off uint64) error {
	return s.do("write", opWrite, s.writeCached, server, volume, p, off)
}

func (s *Store) writeCached(server, volume int, p []byte, off uint64, tr *OpTrace) error {
	nBlocks := len(p) / block.Size
	key0, err := s.beginOp(server, volume, off, nBlocks, opWrite)
	if err != nil {
		return err
	}

	var runBuf [runsInline]uint64
	runs := s.pageRuns(runBuf[:0], key0, nBlocks)
	flights := make([]flight, nBlocks) // by block; one allocation per write
	if err := s.reserveWrite(key0, runs, flights); err != nil {
		return err
	}

	// Write-through: the backend is always authoritative, and is written
	// first, unlocked. Write-back: the cache takes (dirty) what the fold
	// can; the positions it cannot go on through, for the backend after it.
	wb := s.opts.WriteBack
	var werr error
	var throughBuf [missInline]uint64
	through := throughBuf[:0]
	if !wb {
		if werr = s.backend.WriteAt(server, volume, p, off); werr == nil {
			s.writeReqs.Add(1)
			s.writeBytes.Add(int64(len(p)))
		}
	}

	// Fold the data into the cache, one critical section per shard, blocks
	// in request order: a resident block takes it in place, an admitted one
	// is installed. A block whose reservation went stale (invalidated since
	// it was taken), or a store closed meanwhile (Close may already have
	// drained this shard), must not park data in the cache: under write-back
	// it writes through. A write-through write is complete with its fold.
	var hits, admitted int
	s.eachShard(runs, func(sh *shard, lo, hi int) {
		for _, w := range runs[lo:hi] {
			i, end, pk, b := runPage(key0, w)
			pg := sh.tab.Page(pk)
			for ; i < end && werr == nil; i, b = i+1, b+1 {
				data := p[i*block.Size : (i+1)*block.Size]
				switch slot := pg[b] - 1; {
				case flights[i].stale || s.closed.Load(): // the cache must not take it
				case pg[b] != 0:
					sh.tab.Hit(slot)
					copy(sh.frame(slot), data)
					if wb {
						sh.setDirtyLocked(slot)
					}
					sh.stats.WriteHits++
					hits++
					continue
				case flights[i].admit && sh.installAdmitted(pk+block.Key(b), data, wb):
					admitted++
					pg = sh.tab.Page(pk) // its eviction may have taken a page-mate
					continue
				}
				if wb {
					through = append(through, uint64(i))
				}
			}
		}
		if !wb {
			sh.completeLocked(key0, runs[lo:hi], flights, p, werr)
		}
	})
	s.tenantHits(server, volume, int64(hits))
	if tr != nil {
		tr.Hits = hits
		tr.Misses = nBlocks - hits
		tr.Admitted = admitted
	}
	if wb {
		_, werr = s.runIO(s.backend.WriteAt, &s.writeReqs, &s.writeBytes, key0, p, through)
		s.eachShard(runs, func(sh *shard, lo, hi int) {
			sh.completeLocked(key0, runs[lo:hi], flights, p, werr)
		})
	}
	return werr
}

// reserveWrite reserves a write's blocks in the in-flight tables, shard by
// shard; on an error it releases what earlier shards hold. The blocks a
// shard does not hold are offered to the sieve at once, under its lock, not
// the shard's (the reservation keeps them ours); the fold installs the ones
// it admits.
func (s *Store) reserveWrite(key0 block.Key, runs []uint64, flights []flight) error {
	now := s.now()
	var atBuf [missInline]uint64
	var admBuf [block.BlocksPerPage]uint64
	for lo := 0; lo < len(runs); {
		sh, hi := s.shardRuns(runs, lo)
		sh.mu.Lock()
		if lo == 0 {
			sh.stats.WriteOps++
		}
		at, err := sh.reserveLocked(key0, runs[lo:hi], flights, atBuf[:0])
		sh.mu.Unlock()
		if err != nil {
			s.eachShard(runs[:lo], func(sh *shard, lo, hi int) {
				sh.completeLocked(key0, runs[lo:hi], flights, nil, err)
			})
			return err
		}
		if len(at) > 0 {
			sh.sieveMu.Lock()
			for _, i := range sh.sieveLocked(admBuf[:0], key0, at, now) {
				flights[i].admit = true
			}
			sh.sieveMu.Unlock()
		}
		lo = hi
	}
	return nil
}

// Invalidate drops any cached blocks overlapping [off, off+length) of the
// volume, returning how many were resident. Use it when the backing
// ensemble is modified outside the Store (the write-through design makes
// this unnecessary for I/O that goes through the Store itself).
//
// In-flight operations on the range are marked stale and detached — a fetch
// or write in the air would re-install data from before the drop — and the
// keys are recorded in rotSkip, so a staging epoch commit cannot resurrect
// its older batch-fetched copy. A dirty frame holds the only current copy:
// it is written back before it is dropped.
func (s *Store) Invalidate(server, volume int, off uint64, length int) (dropped int, err error) {
	if err := checkIO(server, volume, off, length); err != nil {
		return 0, err
	}
	if s.closed.Load() {
		return 0, ErrClosed
	}
	key0 := block.MakeKey(server, volume, off/block.Size)
	var buf [runsInline]uint64
	runs := s.pageRuns(buf[:0], key0, length/block.Size)
	s.eachShard(runs, func(sh *shard, lo, hi int) {
		for r := lo; r < hi && err == nil; r++ {
			i, end, pk, b := runPage(key0, runs[r])
			sh.dropFlightsLocked(pk, b, end-i)
			pg := sh.tab.Page(pk)
			for ; i < end && err == nil; i, b = i+1, b+1 {
				slot := pg[b] - 1
				if pg[b] == 0 {
					continue
				}
				if sh.dirty[slot] {
					if err = sh.flushSlot(slot); err != nil {
						break
					}
				}
				sh.removeLocked(slot)
				dropped++
			}
		}
	})
	return dropped, err
}

// flushBatch is one write-back sweep: every Flush riding on it shares its
// outcome.
type flushBatch struct {
	done chan struct{}
	err  error
}

// Flush writes every currently-dirty block back to the ensemble
// (write-back mode), shard by shard in ascending order. The backend I/O is
// staged: no shard lock is held while streaming, so concurrent reads and
// writes proceed. Blocks whose write-back fails stay dirty and resident
// and are counted in Stats.FlushErrors; every shard is still visited and
// the first error is returned.
//
// Concurrent flushes group-commit. A Flush that finds no sweep running
// starts one. A Flush that arrives while a sweep runs cannot ride on it —
// the sweep may already have passed the blocks this caller dirtied — so it
// waits for that sweep to end, and every Flush arriving meanwhile shares
// the one follow-up sweep, which starts after all of their calls.
func (s *Store) Flush() error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.flushMu.Lock()
	switch {
	case s.flushing == nil:
		b := &flushBatch{done: make(chan struct{})}
		s.flushing = b
		s.flushMu.Unlock()
		return s.sweep(b)
	case s.flushNext != nil:
		b := s.flushNext
		s.flushMu.Unlock()
		s.coalescedFlushes.Add(1)
		<-b.done
		return b.err
	default:
		b, running := &flushBatch{done: make(chan struct{})}, s.flushing
		s.flushNext = b
		s.flushMu.Unlock()
		<-running.done // which hands b the flushing role
		return s.sweep(b)
	}
}

// sweep runs batch b's write-back sweep, then hands the flushing role to
// the batch queued behind it, whose starter is waiting on b.done.
func (s *Store) sweep(b *flushBatch) error {
	s.groupCommits.Add(1)
	b.err = s.flushAll()
	s.flushMu.Lock()
	s.flushing, s.flushNext = s.flushNext, nil
	s.flushMu.Unlock()
	close(b.done)
	return b.err
}

// flushAll is one staged write-back sweep over every shard.
func (s *Store) flushAll() error {
	var err error
	for _, sh := range s.shards {
		sh.mu.Lock()
		ferr := sh.flushStagedLocked(nil)
		sh.mu.Unlock()
		if err == nil {
			err = ferr
		}
	}
	return err
}
