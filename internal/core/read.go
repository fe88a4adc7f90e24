package core

import (
	"time"

	"repro/internal/block"
)

// ReadAt reads len(p) bytes from the volume at off: cached blocks from the
// cache, the rest from the backend, straight into p with no lock held.
// Missing blocks are offered to the sieve first. Only the few it admits are
// reserved in their shard's in-flight table (concurrent misses of one join
// rather than refetch; an intervening write or Invalidate vetoes the install)
// and installed after the fetch; a rejected block leaves no trace in the
// store beyond its sieve count and the backend counters.
func (s *Store) ReadAt(server, volume int, p []byte, off uint64) error {
	return s.do("read", opRead, s.readCached, server, volume, p, off)
}

// miss is one block a read did not find and has a flight for: admitted
// (this call fetches and installs it; sh is its shard) or joined (another
// call's flight will deliver it). idx is its position in the request.
type miss struct {
	idx int
	f   *flight
	sh  *shard
}

func (s *Store) readCached(server, volume int, p []byte, off uint64, tr *OpTrace) error {
	nBlocks := len(p) / block.Size
	key0, err := s.beginOp(server, volume, off, nBlocks, opRead)
	if err != nil {
		return err
	}

	// Classify: one critical section per shard, shards ascending, each
	// shard's blocks in request order — so a shard's recency order and its
	// sieve's counts move exactly as a block-by-block walk would move them.
	// A miss with no flight to join goes on at, to be fetched, and is
	// offered to the sieve with the shard lock released (shard.admit).
	var runBuf [runsInline]uint64
	var atBuf [missInline]uint64
	var admittedBuf, joinedBuf [8]miss
	runs := s.pageRuns(runBuf[:0], key0, nBlocks)
	at, admitted, joined := atBuf[:0], admittedBuf[:0], joinedBuf[:0]
	var now time.Time // the sieve's clock, read once a block has actually missed
	for lo := 0; lo < len(runs); {
		sh, hi := s.shardRuns(runs, lo)
		sh.mu.Lock()
		if lo == 0 {
			sh.stats.ReadOps++
		}
		missed, seq := len(at), sh.admitSeq.Load()
		at, joined = sh.classifyLocked(key0, runs[lo:hi], p, at, joined)
		sh.mu.Unlock()
		if sh.sieveC != nil && len(at) > missed {
			if now.IsZero() {
				now = s.now()
			}
			at, admitted, joined = sh.admit(key0, at, missed, seq, now, admitted, joined)
		}
		lo = hi
	}
	s.tenantHits(server, volume, int64(nBlocks-len(at)-len(joined)))
	if tr != nil {
		tr.Misses = len(at)
		tr.Coalesced = len(joined)
		tr.Hits = nBlocks - len(at) - len(joined)
	}
	if len(at) > 0 {
		if err := s.readMisses(key0, p, at, admitted, tr); err != nil {
			return err
		}
	}
	// Join coalesced misses last: every flight this call owns is already
	// completed, so blocking here cannot deadlock. A joined flight that
	// failed is re-fetched as a plain rejected miss.
	for _, m := range joined {
		if <-m.f.done; m.f.err == nil {
			copy(p[m.idx*block.Size:(m.idx+1)*block.Size], m.f.data)
		} else if s.closed.Load() {
			return ErrClosed
		} else if err := s.readMisses(key0, p, []uint64{uint64(m.idx)}, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// classifyLocked walks a read's page runs in this shard — runs over key0,
// p the request's buffer — copying and noting hits, joining the flights of
// misses that have one and appending the other misses' positions to at. A
// run takes one slot-table probe; each stretch of resident blocks in it
// takes one HitRun and a copy per stretch of consecutive slots
// (copyFramesLocked). The in-flight table is probed only for a run with a
// block missing.
func (sh *shard) classifyLocked(key0 block.Key, runs []uint64, p []byte, at []uint64, joined []miss) ([]uint64, []miss) {
	hits := 0
	for _, w := range runs {
		i, end, pk, b := runPage(key0, w)
		sh.stats.Reads += int64(end - i)
		pg := sh.tab.Page(pk)
		var pf [block.BlocksPerPage]*flight
		for probed := false; i < end; {
			n := 0
			for i+n < end && pg[b+n] != 0 {
				n++
			}
			if n > 0 {
				sh.tab.HitRun(pg, b, b+n)
				sh.copyFramesLocked(p[i*block.Size:(i+n)*block.Size], pg, b)
				hits, i, b = hits+n, i+n, b+n
				continue
			}
			if !probed {
				pf, probed = sh.inflight[pk], true
			}
			if f := pf[b]; f != nil {
				joined = append(joined, miss{idx: i, f: sh.joinLocked(f)})
			} else {
				at = append(at, uint64(i))
			}
			i, b = i+1, b+1
		}
	}
	sh.stats.ReadHits += int64(hits)
	return at, joined
}

// copyFramesLocked fills p with the frames of page's resident blocks from
// b on, one copy per stretch of blocks whose slots follow one another
// within one slab.
func (sh *shard) copyFramesLocked(p []byte, page [block.BlocksPerPage]uint32, b int) {
	for mask := uint32(1)<<sh.slabShift - 1; len(p) > 0; {
		slot, n := page[b]-1, 1
		for n*block.Size < len(p) && page[b+n] == page[b]+uint32(n) && (slot+uint32(n))&mask != 0 {
			n++
		}
		off := int(slot&mask) * block.Size
		copy(p[:n*block.Size], sh.slabs[slot>>sh.slabShift][off:])
		p, b = p[n*block.Size:], b+n
	}
}

// readMisses fetches the blocks of a read that missed — at holds their
// positions in the request — into p, then installs those the sieve admitted
// (in shard order, as classification left them) and completes their flights.
// The fetch is lock-free, so concurrent callers overlap their backend
// latency. An admitted block is installed — one fetched before a failed run
// too — unless a write or Invalidate of it (stale) or Close intervened.
func (s *Store) readMisses(key0 block.Key, p []byte, at []uint64, admitted []miss, tr *OpTrace) error {
	okBefore, fetchErr := s.runIO(s.backend.ReadAt, &s.fetchReads, &s.fetchBytes, key0, p, at)
	installed := 0
	for lo := 0; lo < len(admitted); {
		sh := admitted[lo].sh
		hi := lo + 1
		for hi < len(admitted) && admitted[hi].sh == sh {
			hi++
		}
		sh.mu.Lock()
		for _, m := range admitted[lo:hi] {
			key := key0 + block.Key(m.idx)
			if m.idx < okBefore {
				data := p[m.idx*block.Size : (m.idx+1)*block.Size]
				if !m.f.stale && !s.closed.Load() && sh.installAdmitted(key, data, false) {
					installed++
				}
				m.f.publishLocked(data)
			} else {
				m.f.err = fetchErr
			}
			sh.finishLocked(key, m.f)
		}
		sh.mu.Unlock()
		lo = hi
	}
	if tr != nil {
		tr.Admitted = installed
	}
	return fetchErr
}
