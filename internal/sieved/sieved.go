// Package sieved implements SieveStore-D, the discrete SieveStore variant
// (§3.2): every access is logged as an <address, 1> tuple into one of R
// hash-partitioned spill files; periodically (and at each epoch boundary) a
// map-reduction-like per-key reduction sorts each partition and counts
// contiguous runs of the same address; blocks whose epoch access count
// reaches the threshold (t = 10 in the paper) are batch-allocated for the
// next epoch, during which no replacement occurs.
//
// The metastate lives entirely in files on the SieveStore node's local
// storage — never on the access critical path and never in the SSD cache.
package sieved

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/block"
)

// DefaultThreshold is the paper's tuned epoch access-count threshold
// (blocks with ≥10 accesses in an epoch are allocated for the next epoch;
// insensitive in the 8–20 range, §5.1).
const DefaultThreshold = 10

// DefaultPartitions is the default number of hash partitions R.
const DefaultPartitions = 16

// errClosed is returned by operations on a closed Logger.
var errClosed = fmt.Errorf("sieved: logger is closed")

// partition is one hash partition of the access log: an append-only spill
// file with its own mutex, so concurrent loggers hashing to different
// partitions never contend. Keys hash to partitions by their 4 KiB page,
// with the hash core.Store reduces to a shard (block.Key.PageHash): a
// request's keys fall into page-long runs per partition, and a partition
// count that is a multiple of the shard count gives each partition one shard.
type partition struct {
	// rewrite serializes whole-file rewrites (Compact, Reset, salvage)
	// against the readers that run without mu (Select, Counts): mu alone
	// only excludes appends, not the read window, and a rewrite truncates
	// the inode the reader is positioned in. Lock order: mu, then rewrite.
	rewrite sync.RWMutex

	mu sync.Mutex
	w  *bufio.Writer
	f  *os.File
	// tuples counts the live tuples (for compaction bookkeeping and tests).
	tuples int64
	// mark records the file offset up to which the most recent Select
	// reduced the log (-1: no Select pending). Reset keeps the tuples
	// appended past the mark — accesses logged while an epoch transition
	// was in flight count toward the next epoch instead of being dropped.
	mark int64
}

// Logger is the access log: R append-only partition files of
// <address, count> tuples.
//
// Logger is safe for concurrent use, and appends to distinct partitions
// proceed in parallel (each partition has its own lock). In particular
// Select may reduce the epoch's logs while other goroutines keep
// appending: the reduction covers exactly the tuples flushed at its
// start, and appends that race it are preserved for the next epoch by the
// matching Reset. Whole-file rewrites (Compact, Reset) are serialized
// against the lock-free partition readers by a per-partition rewrite
// lock, so a reduction racing them sees either the old or the new file
// contents, never a torn read.
type Logger struct {
	dir    string
	parts  []*partition
	closed atomic.Bool
}

// NewLogger creates a logger with the given partition count, writing spill
// files under dir (created if needed). Existing partition files are
// truncated; use OpenLogger to resume an interrupted epoch.
func NewLogger(dir string, partitions int) (*Logger, error) {
	return makeLogger(dir, partitions, false)
}

// OpenLogger opens (or creates) a logger that *appends* to any existing
// partition files under dir — crash recovery for the epoch in progress:
// tuples logged before a restart still count toward the epoch's reduction.
func OpenLogger(dir string, partitions int) (*Logger, error) {
	return makeLogger(dir, partitions, true)
}

func makeLogger(dir string, partitions int, resume bool) (*Logger, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("sieved: partitions must be ≥1, got %d", partitions)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sieved: %w", err)
	}
	l := &Logger{dir: dir}
	for p := 0; p < partitions; p++ {
		flags := os.O_RDWR | os.O_CREATE | os.O_TRUNC
		if resume {
			flags = os.O_RDWR | os.O_CREATE | os.O_APPEND
		}
		f, err := os.OpenFile(l.partitionPath(p), flags, 0o644)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("sieved: %w", err)
		}
		l.parts = append(l.parts, &partition{
			f:    f,
			w:    bufio.NewWriterSize(f, 1<<16),
			mark: -1,
		})
	}
	if resume {
		if err := l.rebucket(); err != nil {
			l.Close()
			return nil, err
		}
	}
	return l, nil
}

// rebucket is the resume path's salvage. Whatever key → partition mapping
// wrote a file bucketed its tuples, and a run with more partitions (core
// sizes the count from Shards) leaves files past this logger's count, so
// every part-*.log in the directory is salvaged, one at a time: what decodes
// cleanly is reduced (a final tuple torn by a crash mid-write is dropped),
// the tuples the current mapping places elsewhere are appended to their
// partitions and flushed, and only then is the file rewritten with those
// that stay, or removed if it is not this logger's. A resume interrupted
// between two files leaves every tuple in one file, and the next finishes
// the job. The logger is not shared yet: no partition lock is needed.
func (l *Logger) rebucket() error {
	own := make(map[string]int, len(l.parts))
	for p := range l.parts {
		own[filepath.Base(l.partitionPath(p))] = p
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "part-") || !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		path := filepath.Join(l.dir, e.Name())
		salvaged, err := readTuples(path, 0, math.MaxInt64, true)
		if err != nil {
			return err
		}
		src, mine := own[e.Name()]
		stay := salvaged[:0]
		for _, t := range salvaged {
			if p := l.partitionIndex(t.key); mine && p == src {
				stay = append(stay, t)
			} else if err := l.appendLocked(l.parts[p], t.key, t.count); err != nil {
				return err
			}
		}
		for _, part := range l.parts {
			if err := part.w.Flush(); err != nil {
				return err
			}
		}
		if mine {
			err = l.rewritePartitionLocked(src, stay)
		} else {
			err = os.Remove(path)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (l *Logger) partitionPath(p int) string {
	return filepath.Join(l.dir, fmt.Sprintf("part-%04d.log", p))
}

// partitionIndex selects the spill file for a key (the paper's hash
// function on the address, here of the key's page).
func (l *Logger) partitionIndex(key block.Key) int {
	return int(key.PageHash() % uint64(len(l.parts)))
}

// LogRequest logs every block the request touches.
func (l *Logger) LogRequest(req *block.Request) error {
	return l.LogRun(req.FirstBlock(), req.Blocks())
}

// LogRun appends an <address, 1> tuple for each of the n consecutive keys
// from first — one request's blocks. The run is walked page by page: a
// page's keys share a partition, whose lock is taken once for the page (and
// kept across following pages of the same partition) while the tuples are
// encoded straight into its write buffer. Order within a partition is moot.
func (l *Logger) LogRun(first block.Key, n int) (err error) {
	var held *partition
	for end := first + block.Key(n); first < end && err == nil; {
		if part := l.parts[l.partitionIndex(first)]; part != held {
			if held != nil {
				held.mu.Unlock()
			}
			held = part
			held.mu.Lock()
		}
		if l.closed.Load() {
			err = errClosed
		}
		for page := min(end, first|(block.BlocksPerPage-1)+1); first < page && err == nil; first++ {
			err = l.appendLocked(held, first, 1)
		}
	}
	if held != nil {
		held.mu.Unlock()
	}
	return err
}

// appendLocked encodes one tuple in place in partition part's write buffer
// (a scratch array handed to the writer would escape to the heap, one
// allocation per tuple). Caller must hold part.mu.
func (l *Logger) appendLocked(part *partition, key block.Key, count int64) error {
	if part.w.Available() < 2*binary.MaxVarintLen64 {
		if err := part.w.Flush(); err != nil {
			return err
		}
	}
	buf := binary.AppendUvarint(part.w.AvailableBuffer(), uint64(key))
	if _, err := part.w.Write(binary.AppendUvarint(buf, uint64(count))); err != nil {
		return err
	}
	part.tuples++
	return nil
}

// TupleCount returns the total number of live tuples across partitions.
func (l *Logger) TupleCount() int64 { return l.Stats().Tuples }

// LoggerStats reports the access log's footprint across its partitions —
// the observability layer exports these as gauges.
type LoggerStats struct {
	Partitions         int   // partition file count
	Tuples             int64 // live tuples across all partitions
	MaxPartitionTuples int64 // largest single partition (hash-skew indicator)
	PendingEpochs      int64 // partitions holding a Select mark not yet Reset
}

// Stats snapshots the logger's partition counters.
func (l *Logger) Stats() LoggerStats {
	st := LoggerStats{Partitions: len(l.parts)}
	for _, part := range l.parts {
		part.mu.Lock()
		t := part.tuples
		marked := part.mark >= 0
		part.mu.Unlock()
		st.Tuples += t
		if t > st.MaxPartitionTuples {
			st.MaxPartitionTuples = t
		}
		if marked {
			st.PendingEpochs++
		}
	}
	return st
}

// tuple is one <address, count> record.
type tuple struct {
	key   block.Key
	count int64
}

// flushPartitionLocked flushes partition p's write buffer and returns the
// resulting file size — a tuple boundary, since every append happens in
// full under the partition lock. Callers must hold the partition's mu.
func (l *Logger) flushPartitionLocked(p int) (int64, error) {
	if l.closed.Load() {
		return 0, errClosed
	}
	part := l.parts[p]
	if err := part.w.Flush(); err != nil {
		return 0, err
	}
	fi, err := part.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// readPartitionRange decodes and per-key-reduces the tuples in byte range
// [from, to) of partition p's file, which must start and end on tuple
// boundaries. It runs without the partition's mu — appends beyond `to` are
// invisible and harmless — but holds the partition's rewrite lock (shared)
// so a concurrent Compact or Reset cannot truncate the file mid-read.
func (l *Logger) readPartitionRange(p int, from, to int64) ([]tuple, error) {
	l.parts[p].rewrite.RLock()
	defer l.parts[p].rewrite.RUnlock()
	return readTuples(l.partitionPath(p), from, to, false)
}

// readTuples decodes and per-key-reduces the tuples in byte range
// [from, to) of a partition file, opened independently of any writer.
// Salvage mode stops at a torn trailing tuple instead of failing.
func readTuples(path string, from, to int64, salvage bool) ([]tuple, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(io.LimitReader(f, to-from), 1<<16)
	var tuples []tuple
	for {
		k, err := binary.ReadUvarint(r)
		if err == io.EOF {
			break
		}
		var c uint64
		if err == nil {
			c, err = binary.ReadUvarint(r)
		}
		if err != nil {
			if salvage {
				break
			}
			return nil, fmt.Errorf("sieved: %s: truncated tuple: %w", filepath.Base(path), err)
		}
		tuples = append(tuples, tuple{key: block.Key(k), count: int64(c)})
	}
	return reduce(tuples), nil
}

// reduce is the paper's sort + run-length reduction, in place: the tuples
// are sorted by address and contiguous runs of the same address are summed.
func reduce(tuples []tuple) []tuple {
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].key < tuples[j].key })
	out := tuples[:0]
	for _, t := range tuples {
		if n := len(out); n > 0 && out[n-1].key == t.key {
			out[n-1].count += t.count
		} else {
			out = append(out, t)
		}
	}
	return out
}

// readPartitionLocked flushes and reduces all of partition p under its mu.
func (l *Logger) readPartitionLocked(p int) ([]tuple, error) {
	size, err := l.flushPartitionLocked(p)
	if err != nil {
		return nil, err
	}
	return l.readPartitionRange(p, 0, size)
}

// Compact performs the paper's incremental per-key reduction: each
// partition is rewritten with one tuple per address, shrinking the logs
// without losing counts. It may be called at any time between epochs; a
// pending Select mark is invalidated (the next Reset clears everything).
func (l *Logger) Compact() error {
	for p := range l.parts {
		part := l.parts[p]
		part.mu.Lock()
		reduced, err := l.readPartitionLocked(p)
		if err == nil {
			err = l.rewritePartitionLocked(p, reduced)
		}
		if err != nil {
			part.mu.Unlock()
			return err
		}
		part.mark = -1
		part.mu.Unlock()
	}
	return nil
}

// rewritePartitionLocked replaces partition p's file with the given
// tuples. Callers must hold the partition's mu; the partition's rewrite
// lock (acquired here, after mu — always in that order) excludes the
// lock-free readers for the duration of the truncate-and-rewrite.
func (l *Logger) rewritePartitionLocked(p int, tuples []tuple) error {
	part := l.parts[p]
	part.rewrite.Lock()
	defer part.rewrite.Unlock()
	f, err := os.Create(l.partitionPath(p))
	if err != nil {
		return err
	}
	part.f.Close()
	part.f = f
	part.w = bufio.NewWriterSize(f, 1<<16)
	part.tuples = 0
	for _, t := range tuples {
		if err := l.appendLocked(part, t.key, t.count); err != nil {
			return err
		}
	}
	return part.w.Flush()
}

// Counts runs the full reduction and calls fn for every (address, count)
// pair of the current epoch, in no particular order. Tuples appended
// concurrently with the call may or may not be included.
func (l *Logger) Counts(fn func(key block.Key, count int64)) error {
	for p := range l.parts {
		l.parts[p].mu.Lock()
		size, err := l.flushPartitionLocked(p)
		l.parts[p].mu.Unlock()
		if err != nil {
			return err
		}
		reduced, err := l.readPartitionRange(p, 0, size)
		if err != nil {
			return err
		}
		for _, t := range reduced {
			fn(t.key, t.count)
		}
	}
	return nil
}

// Select reduces the epoch's logs and returns every block whose access
// count meets the threshold — ordered by descending count so callers can
// truncate to cache capacity keeping the hottest blocks. The logs are NOT
// reset: a failed epoch transition can simply retry (or give up) without
// losing the epoch's counts. Call Reset once the transition has succeeded.
//
// Logging may continue concurrently: the selection covers exactly the
// tuples flushed when each partition is visited, and a mark is recorded so
// the matching Reset carries later appends into the next epoch. Each
// partition's lock is held only for its flush, never across file reads,
// so the hot logging path is not blocked behind the reduction.
func (l *Logger) Select(threshold int64) ([]block.Key, error) {
	var selected []tuple
	for p := range l.parts {
		part := l.parts[p]
		part.mu.Lock()
		size, err := l.flushPartitionLocked(p)
		part.mu.Unlock()
		if err != nil {
			return nil, err
		}
		reduced, err := l.readPartitionRange(p, 0, size)
		if err != nil {
			return nil, err
		}
		part.mu.Lock()
		part.mark = size
		part.mu.Unlock()
		for _, t := range reduced {
			if t.count >= threshold {
				selected = append(selected, t)
			}
		}
	}
	sort.Slice(selected, func(i, j int) bool {
		if selected[i].count != selected[j].count {
			return selected[i].count > selected[j].count
		}
		return selected[i].key < selected[j].key
	})
	keys := make([]block.Key, len(selected))
	for i, t := range selected {
		keys[i] = t.key
	}
	return keys, nil
}

// Reset starts the next epoch. Tuples covered by the most recent Select
// are dropped; tuples appended after it (accesses logged while the epoch
// transition was in flight) are kept and count toward the new epoch.
// Without a pending Select the logs are cleared outright.
//
// A failing partition does not stop the sweep: the remaining partitions
// are still reset and the first error is returned — aborting mid-way
// would leave every later partition unreset, double-counting its
// already-selected tuples into the next epoch. A partition that could not
// be read keeps its mark (a retry can still finish the job); one whose
// rewrite failed has its mark cleared, since the file's contents are no
// longer what the mark was measured against.
func (l *Logger) Reset() error {
	if l.closed.Load() {
		return errClosed
	}
	var first error
	for p := range l.parts {
		part := l.parts[p]
		part.mu.Lock()
		var tail []tuple
		if mark := part.mark; mark >= 0 {
			size, err := l.flushPartitionLocked(p)
			if err != nil {
				if first == nil {
					first = err
				}
				part.mu.Unlock()
				continue
			}
			if size > mark {
				// Read the tail under the partition lock so no append can
				// land between the read and the rewrite and be lost.
				if tail, err = l.readPartitionRange(p, mark, size); err != nil {
					if first == nil {
						first = err
					}
					part.mu.Unlock()
					continue
				}
			}
		}
		if err := l.rewritePartitionLocked(p, tail); err != nil {
			if first == nil {
				first = err
			}
		}
		part.mark = -1
		part.mu.Unlock()
	}
	return first
}

// EndEpoch is Select followed by Reset: it reduces the epoch's logs,
// selects every block whose access count meets the threshold, and resets
// the logs for the next epoch. Callers that must stay consistent across a
// failure between the two steps (e.g. a batch allocation that fetches the
// selected blocks) should call Select and Reset themselves.
func (l *Logger) EndEpoch(threshold int64) ([]block.Key, error) {
	keys, err := l.Select(threshold)
	if err != nil {
		return nil, err
	}
	if err := l.Reset(); err != nil {
		return nil, err
	}
	return keys, nil
}

// Close flushes and closes all partitions. The spill files remain on disk
// (the caller owns the directory).
func (l *Logger) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	var first error
	for _, part := range l.parts {
		part.mu.Lock()
		if err := part.w.Flush(); err != nil && first == nil {
			first = err
		}
		if err := part.f.Close(); err != nil && first == nil {
			first = err
		}
		part.mu.Unlock()
	}
	return first
}
