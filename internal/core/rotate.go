package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

const (
	// spillFaultThreshold is how many consecutive spill errors disable
	// SieveStore-D access logging for the rest of the epoch: the spill
	// device is presumed sick, and a staler epoch selection is the only
	// cost.
	spillFaultThreshold = 3
	// spillProbeEvery is how often one access goes through the disabled
	// spill logger to probe for recovery.
	spillProbeEvery = time.Second
)

// testLogHook, when non-nil, runs at the top of logAccess — tests use it
// to stall the access-logging path and prove the hit path no longer
// serializes behind it. Set and cleared only while no store operations are
// running.
var testLogHook func()

// testSpillFault, when non-nil, injects an error into logAccess before the
// logger is touched — tests use it to drive the spill-disable path without
// breaking the logger's real files. Set and cleared only while no store
// operations are running.
var testSpillFault func() error

// logAccess records the access for the offline sieve (VariantD only). It
// runs before any shard lock is taken: the logger's buffered file I/O
// (including its 64 KiB buffer flushes) must never stall concurrent hits.
//
// Logging failures must not fail the I/O path; the worst case is a slightly
// stale epoch selection. They are surfaced via Close — and after
// spillFaultThreshold consecutive failures, access logging is disabled for
// the rest of the epoch (the spill device is presumed sick). One probe per
// spillProbeEvery retries; a success, or the epoch rotation's log reset,
// re-enables logging.
func (s *Store) logAccess(server, volume int, first uint64, nBlocks int) {
	if s.logger == nil {
		return
	}
	if h := testLogHook; h != nil {
		h()
	}
	if s.spillDisabled.Load() {
		now, last := s.now().UnixNano(), s.lastSpillProbe.Load()
		if now-last < int64(spillProbeEvery) || !s.lastSpillProbe.CompareAndSwap(last, now) {
			return
		}
	}
	var err error
	if f := testSpillFault; f != nil {
		err = f()
	}
	if err == nil {
		err = s.logger.LogRun(block.MakeKey(server, volume, first), nBlocks)
	}
	s.noteSpill(err)
}

// noteSpill tracks consecutive access-log failures and flips the
// spill-disable switch across the threshold (or back, on a successful
// probe).
func (s *Store) noteSpill(err error) {
	if err == nil {
		s.spillFaultStreak.Store(0)
		s.spillDisabled.Store(false)
		return
	}
	streak := s.spillFaultStreak.Add(1)
	if streak >= spillFaultThreshold && s.spillDisabled.CompareAndSwap(false, true) {
		s.spillDisables.Add(1)
		s.lastSpillProbe.Store(s.now().UnixNano())
	}
}

// updateDeadlineLocked recomputes the next epoch boundary after curEpoch
// advances or the schedule restarts. Caller must hold rotMu.
func (s *Store) updateDeadlineLocked() {
	s.deadline.Store(s.start.Add(time.Duration(s.curEpoch+1) * s.opts.Epoch).UnixNano())
}

// maybeRotate rotates VariantD epochs that have elapsed. The hot path
// pays one atomic deadline load; past the deadline, the rotation runs
// inline in the triggering caller, holding rotMu but no shard lock across
// its backend I/O. A caller that finds rotMu taken proceeds without
// blocking: the transition holding it covers the due boundary.
func (s *Store) maybeRotate() {
	if s.logger == nil || s.now().UnixNano() < s.deadline.Load() || !s.rotMu.TryLock() {
		return
	}
	defer s.rotMu.Unlock()
	for !s.closed.Load() && s.curEpoch < int64(s.now().Sub(s.start)/s.opts.Epoch) {
		// Advance the schedule before the staged work so concurrent ops'
		// deadline checks skip this boundary. On an abort the next
		// boundary (or a manual RotateEpoch) retries with the counts still
		// accumulating — exactly the unsharded retry schedule.
		s.curEpoch++
		s.updateDeadlineLocked()
		if _, err := s.rotateStaged(); err != nil {
			return
		}
	}
}

// RotateEpoch forces an immediate SieveStore-D epoch boundary: the current
// logs are reduced, qualifying blocks are batch-allocated (fetching their
// data from the ensemble), and the logs reset. A transition already in
// progress finishes first: the caller asked for a boundary now, after
// whatever was already due. The epoch schedule restarts from here — the
// next automatic rotation happens one full Epoch after the epoch containing
// the current time, not at the originally scheduled boundary (otherwise a
// near-boundary manual rotation would immediately be followed by an
// automatic one over empty logs, wiping the cache). It is a no-op for
// VariantC.
func (s *Store) RotateEpoch() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.logger == nil {
		return nil
	}
	s.rotMu.Lock()
	defer s.rotMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	// The boundary takes effect even if the post-commit log reset fails:
	// that error is returned, but counted in ResetFailures, not as an abort.
	committed, err := s.rotateStaged()
	if committed {
		s.start = s.now()
		s.curEpoch = 0
		s.updateDeadlineLocked()
	}
	return err
}

// rotateStaged performs one SieveStore-D epoch transition. Called with
// rotMu held and no shard lock; shard locks are taken per stage, always in
// ascending shard order, and never held across backend I/O — concurrent
// reads and writes keep being served throughout. The transition is
// failure-atomic: any error before the final swap leaves both the spill
// logs and the cache contents exactly as they were (Select does not reset
// the logs; Reset runs only after the swap commits), and counts in
// RotateFailures. committed reports whether the swap took effect: a reset
// error after the commit is returned with committed true, and counts in
// ResetFailures instead.
//
// With multiple shards the swap itself commits shard by shard: a reader
// can briefly observe shard i serving the new epoch's set while shard j
// still serves the old one. Each shard's swap is atomic under its lock,
// and the paper's semantics (a single global swap) are exact at Shards=1.
func (s *Store) rotateStaged() (committed bool, err error) {
	// Stage 0: arm every shard — from here until its commit, writes and
	// invalidations record skipped keys in rotSkip so the swap cannot
	// install a fetched copy that their data supersedes.
	s.armRotSkip(true)
	defer func() {
		if !committed {
			s.armRotSkip(false)
			s.rotateFailures.Add(1)
		}
	}()

	// Quotas repartition at every epoch boundary: the ending epoch's
	// per-tenant hits are the freshest demand signal, and the selection
	// clip below then runs against the new split.
	s.acct.Repartition()

	// Stage 1: reduce the logs and select the new set — no locks held.
	// Tenant quotas clip the hottest-first selection before the capacity
	// cut: each tenant keeps at most its quota blocks, so a churning
	// tenant's one-hit wonders cannot consume capacity slots a stable
	// tenant's (cooler but reused) blocks would fill.
	selected, err := s.logger.Select(s.opts.DThreshold)
	if err != nil {
		return false, err
	}
	selected, _ = s.acct.ClipSelection(selected)
	perShard, inNew, need := s.planEpoch(selected)

	// Stage 2: fetch the selected blocks that are not already resident —
	// off-lock, in contiguous multi-block runs with bounded parallelism.
	fetched, err := s.fetchBatch(need)
	if err != nil {
		return false, err
	}

	// Stage 3: write back dirty blocks the swap would evict — staged like
	// Flush, shard by shard ascending, and aborting the rotation on
	// failure (evicting them unflushed would lose data).
	for _, sh := range s.shards {
		sh.mu.Lock()
		err = sh.flushStagedLocked(func(k block.Key) bool { return !inNew[k] })
		sh.mu.Unlock()
		if err != nil {
			return false, err
		}
	}

	// Stage 4: commit — each shard swaps under its own lock, no backend
	// I/O, ascending order.
	for si, sh := range s.shards {
		sh.mu.Lock()
		sh.commitEpochLocked(perShard[si], fetched)
		sh.mu.Unlock()
	}
	s.epochs.Add(1)

	// Stage 5: reset the logs — no locks held again (the logger is safe
	// for concurrent use, and accesses logged since Select carry into the
	// new epoch). The swap is already committed; a reset failure is
	// surfaced but no longer rolls anything back, and tuples in partitions
	// the reset could not clear double-count into the next epoch's
	// selection.
	if rerr := s.logger.Reset(); rerr != nil {
		s.resetFailures.Add(1)
		return true, fmt.Errorf("core: epoch log reset: %w", rerr)
	}
	// Fresh logs on a working spill device: if logging had been disabled
	// for the old epoch, resume it for the new one.
	s.spillFaultStreak.Store(0)
	s.spillDisabled.Store(false)
	return true, nil
}

// armRotSkip arms every shard's rotSkip for a staging transition, or, with
// on false, disarms them after an abort (a shard's commit clears its own).
func (s *Store) armRotSkip(on bool) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.rotSkip = nil
		if on {
			sh.rotSkip = make(map[block.Key]uint8)
		}
		sh.mu.Unlock()
	}
}

// planEpoch cuts a hottest-first epoch selection to the cache's capacity
// and splits it across shards, hottest-first within each; a shard takes at
// most its own capacity. A skewed key→shard distribution can overflow one
// shard while others sit half-empty — those hot blocks are lost for the
// epoch, so they count in SelectOverflow instead of being dropped silently.
// inNew is the set the shards keep, need its blocks not yet resident, in
// shard order. (Residency only shrinks while rotating: VariantD admits
// solely at epoch boundaries, so need cannot grow stale the dangerous way.)
func (s *Store) planEpoch(selected []block.Key) (perShard [][]block.Key, inNew map[block.Key]bool, need []block.Key) {
	selected = selected[:min(len(selected), int(s.opts.CacheBytes/block.Size))]
	perShard = make([][]block.Key, len(s.shards))
	inNew = make(map[block.Key]bool, len(selected))
	var overflow int64
	for _, k := range selected {
		if si := s.shardIndex(k); len(perShard[si]) < s.shards[si].tab.Capacity() {
			perShard[si] = append(perShard[si], k)
			inNew[k] = true
		} else {
			overflow++
		}
	}
	for si, sh := range s.shards {
		sh.mu.Lock()
		if si == 0 {
			sh.stats.SelectOverflow += overflow
		}
		for _, k := range perShard[si] {
			if !sh.tab.Contains(k) {
				need = append(need, k)
			}
		}
		sh.mu.Unlock()
	}
	return perShard, inNew, need
}

// Bounded parallelism and run sizing for staged transitions (epoch batch
// fetches, staged flushes): backend requests cover contiguous multi-block
// runs of at most transitionMaxRun blocks, issued by at most
// transitionWorkers goroutines.
const (
	transitionWorkers = 8
	transitionMaxRun  = 64 // blocks per backend request (32 KiB)
)

// keyRun is a half-open index range [lo, hi) of consecutive blocks.
type keyRun struct{ lo, hi int }

// contiguousRuns splits sorted keys into runs of consecutive blocks on the
// same server and volume, each at most transitionMaxRun long. include, if
// non-nil, masks individual indices out of the runs.
func contiguousRuns(keys []block.Key, include func(int) bool) []keyRun {
	var runs []keyRun
	for i := 0; i < len(keys); {
		if include != nil && !include(i) {
			i++
			continue
		}
		j := i + 1
		for j < len(keys) && j-i < transitionMaxRun &&
			keys[j] == keys[j-1]+1 &&
			keys[j].Server() == keys[j-1].Server() &&
			keys[j].Volume() == keys[j-1].Volume() &&
			(include == nil || include(j)) {
			j++
		}
		runs = append(runs, keyRun{lo: i, hi: j})
		i = j
	}
	return runs
}

// forEach invokes do(0) … do(n-1) with bounded parallelism (inline, with
// no goroutine, when n is 1). After the first error no new calls are
// started; the first error is returned. do must confine its writes to
// state indexed by its argument — forEach provides the happens-before
// edge back to the caller.
func forEach(n int, do func(i int) error) error {
	workers := min(transitionWorkers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := do(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next  atomic.Int64
		first atomic.Pointer[error]
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := do(i); err != nil {
					first.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	if wg.Wait(); first.Load() != nil {
		return *first.Load()
	}
	return nil
}

// fetchBatch reads the given blocks from the ensemble in contiguous
// multi-block runs with bounded parallelism, charging each request to
// fetchReads and fetchBytes. It is called WITHOUT any shard lock and
// touches no other store state; the returned frames are freshly allocated,
// one per key.
func (s *Store) fetchBatch(keys []block.Key) (map[block.Key][]byte, error) {
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	runs := contiguousRuns(sorted, nil)
	bufs := make([][]byte, len(sorted))
	err := forEach(len(runs), func(ri int) error {
		r := runs[ri]
		n := r.hi - r.lo
		buf := make([]byte, n*block.Size)
		k0 := sorted[r.lo]
		if e := s.backend.ReadAt(k0.Server(), k0.Volume(), buf, k0.Offset()); e != nil {
			return fmt.Errorf("core: epoch move for %v: %w", k0, e)
		}
		s.fetchReads.Add(1)
		s.fetchBytes.Add(int64(len(buf)))
		for i := 0; i < n; i++ {
			bufs[r.lo+i] = buf[i*block.Size : (i+1)*block.Size : (i+1)*block.Size]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fetched := make(map[block.Key][]byte, len(sorted))
	for i, k := range sorted {
		fetched[k] = bufs[i]
	}
	return fetched, nil
}
