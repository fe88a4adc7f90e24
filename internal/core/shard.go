package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/sieve"
	"repro/internal/tenant"
)

// flight is one entry of a shard's in-flight table: a miss fetch or a
// write reservation in progress with the shard lock released. Readers that
// miss on a reserved key register as waiters and are served from the
// flight instead of issuing a duplicate backend fetch.
type flight struct {
	// done is nil until somebody has to wait for the flight (a coalescing
	// reader, a conflicting write, a staged flush): waitLocked creates it
	// and finishLocked closes it, both under the shard lock, so the common
	// flight nobody joins never makes a channel.
	done chan struct{}
	// All remaining fields are guarded by the shard lock until the flight
	// finishes; afterwards they are read-only (the channel close publishes
	// them).
	data    []byte // the block's bytes; set at completion iff waiters > 0
	err     error  // fetch/write failure, propagated to waiters
	waiters int
	// stale marks keys invalidated or batch-replaced while the flight was
	// in the air: the owner must not install its (now outdated) view into
	// the cache. The entry is detached from the table when marked, so new
	// misses start a fresh fetch.
	stale bool
	// isWrite distinguishes write reservations (and staged write-backs)
	// from miss fetches. Bulk replacements (epoch swap, snapshot load)
	// stale only fetches: a fetch holds pre-replacement data, but a write
	// completing afterwards carries *newer* data and must still fold it in.
	isWrite bool
	// admit: the sieve admitted this block of a write; its fold installs it.
	admit bool
}

// waitLocked returns the channel finishLocked will close. Must be called
// under the shard lock, on a flight found in the in-flight table.
func (f *flight) waitLocked() <-chan struct{} {
	if f.done == nil {
		f.done = make(chan struct{})
	}
	return f.done
}

// joinLocked makes the caller a waiter on f, found in the in-flight table:
// finishLocked will publish the block's bytes to it.
func (sh *shard) joinLocked(f *flight) *flight {
	f.waiters++
	f.waitLocked()
	sh.stats.CoalescedReads++
	return f
}

// waitFor drops the shard lock until f, found in the in-flight table,
// has finished.
func (sh *shard) waitFor(f *flight) {
	done := f.waitLocked()
	sh.mu.Unlock()
	<-done
	sh.mu.Lock()
}

// publishLocked stages the flight's payload for its registered waiters:
// a private copy, since src is the owner's buffer or a frame, either of
// which may change once the shard lock drops. Must be called under the
// shard lock, before finishLocked.
func (f *flight) publishLocked(src []byte) {
	if f.waiters > 0 {
		f.data = append([]byte(nil), src...)
	}
}

// slabFrames caps the 512-byte frames one slab holds (128 KiB); see
// newShard.
const slabFrames = 256

// shard is one lock-striped partition of the Store: a fully-associative
// cache (LRU by default; Options.Policy) over its slice of the key space,
// with its own in-flight table, sieve and stats. Keys map to shards by the
// hash of their 4 KiB page (Store.shardIndex), so a shard holds whole pages;
// with Options.Shards == 1 the one shard is exactly the paper's cache.
//
// Resident blocks live in one slot table. tab is the only index of them:
// page→slots, the slot's key, the free slots and the replacement order.
// Everything else about a block is an array indexed by its slot — its dirty
// bit here, and its frame at a fixed place in slabs, which grow one slab at
// a time as slots are first handed out.
type shard struct {
	store *Store
	idx   int

	mu        sync.Mutex
	tab       *cache.Cache
	dirty     []bool // by slot, write-back: the frame is the only current copy
	slabs     [][]byte
	slabShift uint // log2 of this shard's frames per slab
	nDirty    int  // slots with dirty set
	// inflight holds by Key.Page the flight of each block of the page, nil
	// where none is, so a page run costs one probe. No entry is all nil.
	inflight map[block.Key][block.BlocksPerPage]*flight
	// sieveMu guards sieveC. It is taken with mu released; mu may then be
	// taken inside it (shard.admit), never the other way round. admitSeq
	// counts the read flights registered there.
	sieveMu  sync.Mutex
	sieveC   *sieve.C
	admitSeq atomic.Uint32
	// rotSkip is non-nil while a store-wide epoch transition is staging:
	// keys written or invalidated during the transition are recorded (a bit
	// in their page's mask) so the commit cannot install its (older)
	// fetched copy of them. The shard's commit consumes and clears it.
	rotSkip map[block.Key]uint8
	// stats holds the shard's counters; its ReadOps/WriteOps count the
	// calls whose first shard lock was this one's: each call once.
	stats Stats

	// _pad keeps adjacent shard allocations from false-sharing a cache
	// line when the allocator packs them.
	_pad [64]byte //nolint:unused
}

// newShard builds shard idx over tab. A slab holds the largest power of two
// ≤ capacity/32 frames (1 to slabFrames), so a partly used slab wastes < 1/32.
func newShard(s *Store, idx int, tab *cache.Cache) *shard {
	sh := &shard{store: s, idx: idx, tab: tab, inflight: make(map[block.Key][block.BlocksPerPage]*flight)}
	for 2<<sh.slabShift <= min(slabFrames, tab.Capacity()/32) {
		sh.slabShift++
	}
	sh.stats.CapacityBlocks = int64(tab.Capacity())
	return sh
}

// frame returns slot's 512 bytes.
func (sh *shard) frame(slot uint32) []byte {
	off := int(slot&(1<<sh.slabShift-1)) * block.Size
	return sh.slabs[slot>>sh.slabShift][off : off+block.Size : off+block.Size]
}

// fillLocked copies data into a slot tab just handed out, growing dirty
// and slabs to cover a slot that is new (slots are dense, so this adds a
// slab at a time, and never the whole capacity up front).
func (sh *shard) fillLocked(slot uint32, data []byte) {
	for int(slot) >= len(sh.dirty) {
		sh.dirty = append(sh.dirty, false)
	}
	for int(slot>>sh.slabShift) >= len(sh.slabs) {
		sh.slabs = append(sh.slabs, make([]byte, block.Size<<sh.slabShift))
	}
	copy(sh.frame(slot), data)
}

// removeLocked takes a resident slot out of the cache: the tenant's
// occupancy moves, and the slot goes back for reuse. Every path that takes
// a block out ends here.
func (sh *shard) removeLocked(slot uint32) {
	sh.tenantEvict(sh.tab.Key(slot))
	if sh.dirty[slot] {
		sh.dirty[slot] = false
		sh.nDirty--
	}
	sh.tab.Remove(slot)
}

// setDirtyLocked marks a resident slot as holding the only current copy.
func (sh *shard) setDirtyLocked(slot uint32) {
	if !sh.dirty[slot] {
		sh.dirty[slot] = true
		sh.nDirty++
	}
}

// sieveLocked offers the blocks of a request that missed in this shard — at
// holds their positions from key0, in request order — to the sieve and
// appends to dst the positions it admits. The caller holds sieveMu and not
// mu: a page's eight counter slots share one cache line, but counting the
// page still takes ~0.2–0.25 µs (BenchmarkSievePageRuns) and an MCT probe
// or a subwindow's aging sweep more, which neither a hit nor another
// request's walk should wait for.
func (sh *shard) sieveLocked(dst []uint64, key0 block.Key, at []uint64, now time.Time) []uint64 {
	run, a := sh.sieveC.Begin(now.Sub(sh.store.sieveBase).Nanoseconds()), sh.store.acct
	for _, i := range at {
		key := key0 + block.Key(i)
		// A tenant over its quota is denied. The miss is counted either way,
		// so its hot blocks admit the moment it is back under quota.
		if run.Admit(key, a != nil && a.DenyAdmission(tenant.IDOf(key))) {
			dst = append(dst, i)
		}
	}
	return dst
}

// admit offers a read's misses in this shard, at[from:], to the sieve and
// gives each block it admits a flight, appended to admitted. Single-flight
// stays exact although the shard lock was down since the read classified
// (seq is admitSeq as read then): flights are registered inside the sieve's
// critical section — mu nests in sieveMu, never the reverse — so a reader
// the sieve turns down after another's admission finds admitSeq moved, looks
// again, and joins the flight it would have found had the two steps been
// one. A block a write reserved meanwhile is joined likewise and leaves at.
func (sh *shard) admit(key0 block.Key, at []uint64, from int, seq uint32, now time.Time, admitted, joined []miss) ([]uint64, []miss, []miss) {
	var admBuf [block.BlocksPerPage]uint64
	sh.sieveMu.Lock()
	defer sh.sieveMu.Unlock()
	adm := sh.sieveLocked(admBuf[:0], key0, at[from:], now)
	if len(adm) == 0 && sh.admitSeq.Load() == seq {
		return at, admitted, joined
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	keep := at[:from]
	for j := from; j < len(at); { // a page's misses sit together in at
		pk := (key0 + block.Key(at[j])).Page()
		pf, pg, n := sh.inflight[pk], sh.tab.Page(pk), len(admitted)
		for ; j < len(at) && (key0+block.Key(at[j])).Page() == pk; j++ {
			i, b := at[j], (key0+block.Key(at[j]))%block.BlocksPerPage
			if f := pf[b]; f != nil {
				joined = append(joined, miss{idx: int(i), f: sh.joinLocked(f)})
				continue
			}
			if keep = append(keep, i); slices.Contains(adm, i) && pg[b] == 0 {
				pf[b] = &flight{}
				admitted = append(admitted, miss{idx: int(i), f: pf[b], sh: sh})
				sh.admitSeq.Add(1)
			}
		}
		if len(admitted) > n {
			sh.inflight[pk] = pf
		}
	}
	return keep, admitted, joined
}

// installAdmitted installs a block the sieve admitted — dirty, for a
// write-back write — and charges the allocation-write.
func (sh *shard) installAdmitted(key block.Key, data []byte, dirty bool) bool {
	slot, ok := sh.install(key, data)
	if !ok {
		return false
	}
	if dirty {
		sh.setDirtyLocked(slot)
	}
	sh.stats.AllocWrites++
	sh.tenantAllocWrite(key, 1)
	return true
}

// install copies data into a slot for key, evicting (and, in write-back
// mode, flushing) the policy's victim if full. It reports whether the
// block was installed: when the dirty victim's write-back fails, the
// victim stays resident and dirty (its frame holds the only current
// copy), the failure is counted in Stats.FlushErrors, and the new block is
// simply not allocated — the caller's own I/O already succeeded and must
// not be failed by an unrelated block's flush.
func (sh *shard) install(key block.Key, data []byte) (slot uint32, ok bool) {
	if slot, ok = sh.tab.Lookup(key); ok {
		// A duplicate insert is a touch (snapshot streams can repeat a
		// key): nothing is evicted and tenant occupancy does not move.
		sh.tab.Hit(slot)
		copy(sh.frame(slot), data)
		return slot, true
	}
	if sh.tab.Len() >= sh.tab.Capacity() {
		victim, _ := sh.tab.VictimSlot()
		if sh.dirty[victim] {
			if err := sh.flushSlot(victim); err != nil {
				sh.stats.FlushErrors++
				return 0, false
			}
		}
		sh.stats.Evictions++
		sh.removeLocked(victim)
	}
	slot = sh.tab.Add(key)
	sh.fillLocked(slot, data)
	sh.tenantInstall(key)
	return slot, true
}

// flushSlot writes one dirty resident block back and clears its dirty bit.
func (sh *shard) flushSlot(slot uint32) error {
	key := sh.tab.Key(slot)
	if err := sh.store.backend.WriteAt(key.Server(), key.Volume(), sh.frame(slot), key.Offset()); err != nil {
		return fmt.Errorf("core: write-back of %v: %w", key, err)
	}
	sh.stats.BackendWrites++
	sh.stats.BackendBytesWritten += block.Size
	sh.stats.FlushWrites++
	sh.dirty[slot] = false
	sh.nDirty--
	return nil
}

// dirtyKeysLocked lists the dirty blocks only (if non-nil) accepts, in
// ascending key order.
func (sh *shard) dirtyKeysLocked(only func(block.Key) bool) []block.Key {
	var keys []block.Key
	for slot, left := 0, sh.nDirty; left > 0 && slot < len(sh.dirty); slot++ {
		if !sh.dirty[slot] {
			continue
		}
		left--
		if k := sh.tab.Key(uint32(slot)); only == nil || only(k) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// staleFetchFlightsLocked detaches every in-flight *fetch* and marks it
// stale. Called by bulk cache replacements (epoch swap, snapshot load) so
// that fetches completing afterwards cannot install pre-replacement
// frames. Write reservations stay attached: a write completing after the
// replacement carries newer data than anything fetched or snapshotted and
// must still fold it into the cache.
func (sh *shard) staleFetchFlightsLocked() {
	for pk := range sh.inflight {
		sh.detachLocked(pk, 0, block.BlocksPerPage, func(_ int, f *flight) bool {
			f.stale = f.stale || !f.isWrite
			return !f.isWrite
		})
	}
}

// detachLocked takes out of page pk's in-flight entry each flight on blocks
// [b, b+n) that match accepts (j counts from b), deleting the entry once it
// empties.
func (sh *shard) detachLocked(pk block.Key, b, n int, match func(j int, f *flight) bool) {
	pf := sh.inflight[pk]
	for j, f := range pf[b : b+n] {
		if f != nil && match(j, f) {
			pf[b+j] = nil
		}
	}
	if pf == [block.BlocksPerPage]*flight{} {
		delete(sh.inflight, pk)
	} else {
		sh.inflight[pk] = pf
	}
}

// dropFlightsLocked marks the flights on blocks [b, b+n) of page pk stale
// and detaches them: their owners must not install a view from before what
// the caller is doing to the blocks, and later misses fetch fresh. A
// transition staging right now likewise must not resurrect its copy.
func (sh *shard) dropFlightsLocked(pk block.Key, b, n int) {
	sh.detachLocked(pk, b, n, func(_ int, f *flight) bool { f.stale = true; return true })
	if sh.rotSkip != nil {
		sh.rotSkip[pk] |= uint8((1<<n - 1) << b)
	}
}

// finishLocked ends a flight: it leaves the in-flight table (unless it was
// detached as stale, or replaced, meanwhile) and whoever waits on it wakes.
func (sh *shard) finishLocked(key block.Key, f *flight) {
	sh.detachLocked(key.Page(), int(key%block.BlocksPerPage), 1, func(_ int, g *flight) bool { return g == f })
	if f.done != nil {
		close(f.done)
	}
}

// reserveLocked counts this shard's blocks of a write (runs, the shard's
// slice of Store.pageRuns words over key0) as written and claims them in the
// in-flight table, each pointed at its element of flights, which is indexed
// by block; the positions of those not resident go on at, for the sieve.
// Acquisition is all-or-nothing within the shard: if any key is already
// claimed (a miss fetch or another write), the shard lock is dropped and the
// caller waits for that flight with no reservations of its own held *in this
// shard*, then retries. Cross-shard writers and staged flushes both acquire
// shards in ascending index order, so waiting here while holding reservations
// only in lower-numbered shards cannot form a cycle. Caller must hold sh.mu;
// it may be released and re-acquired.
func (sh *shard) reserveLocked(key0 block.Key, runs []uint64, flights []flight, at []uint64) ([]uint64, error) {
	at0 := len(at)
retry:
	for r, w := range runs {
		lo, hi, pk, b := runPage(key0, w)
		pf := sh.inflight[pk]
		for _, f := range pf[b : b+hi-lo] {
			if f != nil {
				for _, w := range runs[:r] { // hand back what this shard holds
					lo, hi, pk, b := runPage(key0, w)
					sh.detachLocked(pk, b, hi-lo, func(j int, g *flight) bool { return g == &flights[lo+j] })
					sh.stats.Writes -= int64(hi - lo)
				}
				at = at[:at0]
				if sh.waitFor(f); sh.store.closed.Load() {
					return at, ErrClosed
				}
				goto retry
			}
		}
		pg := sh.tab.Page(pk)
		for i := lo; i < hi; i, b = i+1, b+1 {
			flights[i].isWrite, pf[b] = true, &flights[i]
			if sh.sieveC != nil && pg[b] == 0 {
				at = append(at, uint64(i))
			}
		}
		sh.inflight[pk] = pf
		sh.stats.Writes += int64(hi - lo)
	}
	return at, nil
}

// completeLocked publishes a write's outcome to any coalesced readers and
// releases this shard's reservations (runs, as for reserveLocked). p is the
// written payload (nil when the operation failed before producing data);
// err is propagated to waiters.
func (sh *shard) completeLocked(key0 block.Key, runs []uint64, flights []flight, p []byte, err error) {
	for _, w := range runs {
		lo, hi, pk, b := runPage(key0, w)
		sh.detachLocked(pk, b, hi-lo, func(j int, f *flight) bool { return f == &flights[lo+j] })
		for i := lo; i < hi; i++ {
			f := &flights[i]
			if err != nil {
				f.err = err
			} else if p != nil {
				f.publishLocked(p[i*block.Size : (i+1)*block.Size])
			}
			if f.done != nil {
				close(f.done)
			}
		}
		// A write landing while an epoch transition is staging has newer
		// data than the transition's batch fetch: tell the swap not to
		// install its copy of these blocks.
		if err == nil && sh.rotSkip != nil {
			sh.rotSkip[pk] |= uint8((1<<(hi-lo) - 1) << b)
		}
	}
}

// flushStagedLocked writes this shard's dirty blocks back to the ensemble
// without holding the shard lock across the backend I/O. only, if
// non-nil, filters which dirty blocks are flushed. Caller must hold
// sh.mu; the lock is released and re-acquired. Each victim is reserved as
// a write flight first (so concurrent writes to it wait and reads
// coalesce onto the cached data), its frame is copied, and the copies are
// streamed in contiguous runs with bounded parallelism. Blocks whose
// write failed stay dirty and are counted in Stats.FlushErrors; the first
// error is returned.
//
// Reservation proceeds in ascending key order while holding earlier
// reservations, and cross-shard callers visit shards in ascending index
// order: any two staged flushes therefore acquire in the same global
// (shard, key) order and cannot deadlock against each other; every other
// flight owner (read misses, write reservations) completes without
// waiting on later-ordered flights, so waiting here with reservations
// held is safe.
func (sh *shard) flushStagedLocked(only func(block.Key) bool) error {
	victims := sh.dirtyKeysLocked(only)
	if len(victims) == 0 {
		return nil
	}
	dirtySlot := func(k block.Key) (uint32, bool) {
		slot, ok := sh.tab.Lookup(k)
		return slot, ok && sh.dirty[slot]
	}

	// staged holds the victims' frames side by side, in key order, so a
	// run of consecutive blocks is already one backend write. It is a
	// copy: Invalidate can flush and free a frame while we stream.
	flights := make([]*flight, len(victims))
	staged := make([]byte, len(victims)*block.Size)
	for i := 0; i < len(victims); {
		k := victims[i]
		pf := sh.inflight[k.Page()]
		if f := pf[k%block.BlocksPerPage]; f != nil {
			sh.waitFor(f)
			continue // re-check this key
		}
		if slot, ok := dirtySlot(k); ok {
			flights[i] = &flight{isWrite: true}
			pf[k%block.BlocksPerPage], sh.inflight[k.Page()] = flights[i], pf
			copy(staged[i*block.Size:], sh.frame(slot))
		} // else flushed or dropped while we waited
		i++
	}

	runs := contiguousRuns(victims, func(i int) bool { return flights[i] != nil })
	runErr := make([]error, len(runs))
	ran := make([]bool, len(runs))

	sh.mu.Unlock()
	err := forEach(len(runs), func(ri int) error {
		r := runs[ri]
		ran[ri] = true
		k0 := victims[r.lo]
		if e := sh.store.backend.WriteAt(k0.Server(), k0.Volume(), staged[r.lo*block.Size:r.hi*block.Size], k0.Offset()); e != nil {
			runErr[ri] = fmt.Errorf("core: write-back of %v: %w", k0, e)
			return runErr[ri]
		}
		return nil
	})
	sh.mu.Lock()

	for ri, r := range runs {
		if !ran[ri] {
			continue
		}
		if runErr[ri] == nil {
			sh.stats.BackendWrites++
			sh.stats.BackendBytesWritten += int64(r.hi-r.lo) * block.Size
		}
		for i := r.lo; i < r.hi; i++ {
			if runErr[ri] != nil {
				sh.stats.FlushErrors++
			} else if slot, ok := dirtySlot(victims[i]); ok {
				sh.dirty[slot] = false
				sh.nDirty--
				sh.stats.FlushWrites++
			}
		}
	}
	for i, k := range victims {
		if f := flights[i]; f != nil {
			// The cache's copy is current regardless of the write-back
			// outcome: serve coalesced readers from it, never an error.
			if f.waiters > 0 {
				f.data = staged[i*block.Size : (i+1)*block.Size]
			}
			sh.finishLocked(k, f)
		}
	}
	return err
}

// drainDirtyLocked flushes until no dirty blocks remain in this shard: a
// few staged passes (writes may re-dirty blocks while the lock is down),
// then a final serial pass under the lock — which cannot be raced — for
// any stragglers.
func (sh *shard) drainDirtyLocked() error {
	for pass := 0; pass < 4 && sh.nDirty > 0; pass++ {
		if err := sh.flushStagedLocked(nil); err != nil {
			return err
		}
	}
	for slot := 0; slot < len(sh.dirty) && sh.nDirty > 0; slot++ {
		if sh.dirty[slot] {
			if err := sh.flushSlot(uint32(slot)); err != nil {
				return err
			}
		}
	}
	return nil
}

// commitEpochLocked applies a SieveStore-D epoch swap to this shard:
// selected is the shard's slice of the new epoch's set, hottest-first;
// fetched holds freshly-read frames for the previously non-resident keys.
// Caller must hold sh.mu; no backend I/O happens here.
func (sh *shard) commitEpochLocked(selected []block.Key, fetched map[block.Key][]byte) {
	// Fetches still in the air predate the new epoch and must not
	// install; write reservations stay attached (their data is newer than
	// the batch fetch).
	sh.staleFetchFlightsLocked()
	// A write reservation still pending at commit may already have sent
	// its data to the backend — after the batch fetch read the old
	// contents — without yet re-acquiring the shard lock to mark rotSkip
	// itself. Write-back through-writes never fold their data into the
	// cache afterwards, so installing the fetched copy would serve stale
	// data until the next epoch: treat the key as skipped now.
	for pk, pf := range sh.inflight {
		for b, f := range pf {
			if f != nil && f.isWrite {
				sh.rotSkip[pk] |= 1 << b
			}
		}
	}
	// Blocks still dirty at commit (re-dirtied while no lock was held)
	// can never be evicted unflushed: retain them into the new epoch,
	// giving up the cold tail of the selection if capacity demands it.
	final := sh.dirtyKeysLocked(nil)
	inFinal := make(map[block.Key]bool, len(final)+len(selected))
	for _, k := range final {
		inFinal[k] = true
	}
	for _, k := range selected {
		if inFinal[k] {
			continue
		}
		if len(final) >= sh.tab.Capacity() {
			// Dirty retentions displaced this selected block: a hot block
			// lost to capacity, not a freshness skip — count it.
			sh.stats.SelectOverflow++
			continue
		}
		if !sh.tab.Contains(k) && (fetched[k] == nil || sh.rotSkip[k.Page()]>>(k%block.BlocksPerPage)&1 != 0) {
			// Not resident and nothing trustworthy fetched (written or
			// invalidated during the transition): leave it out; a later
			// epoch can re-select it.
			continue
		}
		final = append(final, k)
		inFinal[k] = true
	}
	moved, overflow := sh.tab.SwapSlots(final, func(slot uint32) {
		sh.stats.Evictions++
		sh.removeLocked(slot)
	})
	sh.stats.SelectOverflow += int64(overflow)
	for _, slot := range moved {
		// Epoch batch installs are real SSD allocation-writes: move
		// tenant occupancy and count them.
		k := sh.tab.Key(slot)
		sh.fillLocked(slot, fetched[k])
		sh.stats.EpochMoves++
		sh.tenantInstall(k)
		sh.tenantAllocWrite(k, 1)
	}
	// This shard's transition is committed; writes no longer need to
	// record skips.
	sh.rotSkip = nil
}
