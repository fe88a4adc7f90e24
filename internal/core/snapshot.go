package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/block"
)

// Cache snapshots let an appliance restart warm: the popular-block set the
// sieve spent a day identifying survives the process. (SieveStore-D's
// epoch logs already live on disk — see sieved.OpenLogger — so with a
// snapshot both tiers of state are durable.)
//
// Snapshot format:
//
//	magic    [4]byte "SVS1"
//	variant  u8
//	capacity u64   (blocks)
//	count    u64   (resident blocks)
//	entries  count × { key u64 | data [512]byte }   (MRU first)
//
// All integers are big-endian. A sharded store interleaves its shards'
// MRU lists by rank (every shard's MRU block, then every second, …), so a
// load into fewer shards or a smaller cache keeps the hottest of every
// shard; with Shards=1 this is exactly the global MRU order. Keys rehash
// into their shards on load, keeping relative recency.

var snapMagic = [4]byte{'S', 'V', 'S', '1'}

// snapHeader is the format's fixed part; a load ignores variant and capacity.
type snapHeader struct {
	Magic           [4]byte
	Variant         uint8
	Capacity, Count uint64
}

// ErrBadSnapshot reports a malformed or incompatible snapshot stream.
var ErrBadSnapshot = errors.New("core: bad snapshot")

// SaveSnapshot writes the cache contents (tags and data, MRU→LRU by rank
// across shards) to w. The store remains usable: each shard's image is
// staged under its lock at memory speed (dirty blocks drained, tags and
// frames copied) and the whole image is then streamed to w with no lock
// held, so a slow writer never stalls I/O. Each shard's slice is a consistent
// point-in-time view as of its copy; with Shards=1 the whole image is one
// consistent instant.
func (s *Store) SaveSnapshot(w io.Writer) error {
	if s.closed.Load() {
		return ErrClosed
	}
	imgs := make([][]byte, len(s.shards)) // by shard: its entries, MRU first
	count, capacity := 0, 0
	for si, sh := range s.shards {
		sh.mu.Lock()
		// Write-back mode: flush first so the backend and the snapshot are
		// a consistent pair (a restore must be able to trust either copy).
		// The drain ends under the lock with nothing dirty, and the copy
		// below happens before the lock is released, so the invariant
		// holds for the copied image even with writers running.
		if err := sh.drainDirtyLocked(); err != nil {
			sh.mu.Unlock()
			return err
		}
		for _, slot := range sh.tab.AppendSlots(nil) { // MRU → LRU
			imgs[si] = binary.BigEndian.AppendUint64(imgs[si], uint64(sh.tab.Key(slot)))
			imgs[si] = append(imgs[si], sh.frame(slot)...)
		}
		count += sh.tab.Len()
		capacity += sh.tab.Capacity()
		sh.mu.Unlock()
	}

	bw := bufio.NewWriterSize(w, 1<<16)
	hdr := snapHeader{snapMagic, uint8(s.opts.Variant), uint64(capacity), uint64(count)}
	if err := binary.Write(bw, binary.BigEndian, hdr); err != nil {
		return err
	}
	for off := 0; count > 0; off += snapEntrySize { // by rank, then shard
		for _, img := range imgs {
			if off < len(img) {
				count--
				if _, err := bw.Write(img[off : off+snapEntrySize]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// LoadSnapshot replaces the cache contents with a snapshot previously
// written by SaveSnapshot. Entries beyond a shard's capacity are dropped
// from the cold (LRU) end of that shard. The snapshot's data is trusted;
// if the backing ensemble may have changed while the cache was down,
// Invalidate the affected ranges (or skip loading).
func (s *Store) LoadSnapshot(r io.Reader) error {
	// Fail fast on a closed store (checked again before the install), then
	// parse the whole stream with no lock held: a slow or huge snapshot
	// reader must not stall concurrent I/O.
	if s.closed.Load() {
		return ErrClosed
	}
	perShard, err := s.readSnapshot(r)
	if err != nil {
		return err
	}

	// Hold rotMu across the replacement: an epoch transition staging now
	// would evict most of the restored set at its commit (its final set was
	// chosen before the load), so wait it out, and let none start until the
	// shards are replaced.
	s.rotMu.Lock()
	defer s.rotMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}

	// Replace shard by shard, ascending. Each shard's drain + replacement
	// happens in one critical section (the drain may release the lock
	// while streaming, but ends under it with nothing dirty). A flush
	// failure aborts the load: shards already visited keep their restored
	// contents, later shards are untouched — the first error is returned.
	for si, sh := range s.shards {
		sh.mu.Lock()
		// Dirty blocks are flushed (staged, off-lock) rather than lost.
		if err := sh.drainDirtyLocked(); err != nil {
			sh.mu.Unlock()
			return err
		}
		// The snapshot replaces the cache contents wholesale and its data
		// is trusted over the backend's; in-flight fetches must not
		// install. Write reservations stay attached — a write completing
		// after the load folds its newer data into the restored frames.
		sh.staleFetchFlightsLocked()
		for _, slot := range sh.tab.AppendSlots(nil) {
			sh.removeLocked(slot)
		}
		// Install in reverse so the hottest block ends most-recently-used.
		es := perShard[si]
		for i := len(es) - 1; i >= 0; i-- {
			sh.install(es[i].key, es[i].data)
		}
		sh.mu.Unlock()
	}
	return nil
}

// snapEntrySize is one entry's size in the stream: key, then data.
const snapEntrySize = 8 + block.Size

// snapEntry is one parsed snapshot entry.
type snapEntry struct {
	key  block.Key
	data []byte
}

// readSnapshot parses a SaveSnapshot stream and splits its entries across
// the store's shards, MRU first, each cut at its shard's capacity (the
// stream's tail is the cold end). The slices grow as entries arrive: the
// header's count is the stream's claim, not a size to allocate.
func (s *Store) readSnapshot(r io.Reader) ([][]snapEntry, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr snapHeader
	if err := binary.Read(br, binary.BigEndian, &hdr); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if hdr.Magic != snapMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadSnapshot, hdr.Magic[:])
	}
	perShard := make([][]snapEntry, len(s.shards))
	var rec [snapEntrySize]byte
	for i := uint64(0); i < hdr.Count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadSnapshot, i, err)
		}
		k := block.Key(binary.BigEndian.Uint64(rec[:8]))
		if si := s.shardIndex(k); len(perShard[si]) < s.shards[si].tab.Capacity() {
			perShard[si] = append(perShard[si], snapEntry{k, append([]byte(nil), rec[8:]...)})
		}
	}
	return perShard, nil
}
