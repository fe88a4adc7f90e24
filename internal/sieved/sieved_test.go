package sieved

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/block"
)

func key(n uint64) block.Key { return block.MakeKey(1, 0, n) }

func newTestLogger(t *testing.T, partitions int) *Logger {
	t.Helper()
	l, err := NewLogger(t.TempDir(), partitions)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestNewLoggerValidates(t *testing.T) {
	if _, err := NewLogger(t.TempDir(), 0); err == nil {
		t.Error("want error for 0 partitions")
	}
}

func TestCountsAggregate(t *testing.T) {
	l := newTestLogger(t, 4)
	want := map[block.Key]int64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := key(uint64(rng.Intn(300)))
		if err := l.LogRun(k, 1); err != nil {
			t.Fatal(err)
		}
		want[k]++
	}
	got := map[block.Key]int64{}
	if err := l.Counts(func(k block.Key, c int64) { got[k] += c }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("key %v: got %d, want %d", k, got[k], c)
		}
	}
}

func TestLogRequestCountsBlocks(t *testing.T) {
	l := newTestLogger(t, 2)
	req := block.Request{Server: 1, Volume: 0, Offset: 0, Length: 1536}
	if err := l.LogRequest(&req); err != nil {
		t.Fatal(err)
	}
	got := map[block.Key]int64{}
	if err := l.Counts(func(k block.Key, c int64) { got[k] += c }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d blocks, want 3", len(got))
	}
}

func TestCompactPreservesCountsAndShrinks(t *testing.T) {
	l := newTestLogger(t, 4)
	for i := 0; i < 1000; i++ {
		if err := l.LogRun(key(uint64(i%50)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if l.TupleCount() != 1000 {
		t.Fatalf("tuples = %d", l.TupleCount())
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if l.TupleCount() != 50 {
		t.Errorf("after compact: %d tuples, want 50", l.TupleCount())
	}
	got := map[block.Key]int64{}
	if err := l.Counts(func(k block.Key, c int64) { got[k] += c }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if got[key(uint64(i))] != 20 {
			t.Fatalf("key %d count = %d, want 20", i, got[key(uint64(i))])
		}
	}
	// Compaction must also be incremental: more logging afterwards merges.
	if err := l.LogRun(key(0), 1); err != nil {
		t.Fatal(err)
	}
	got0 := int64(0)
	if err := l.Counts(func(k block.Key, c int64) {
		if k == key(0) {
			got0 += c
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got0 != 21 {
		t.Errorf("post-compact count = %d, want 21", got0)
	}
}

func TestEndEpochSelectsAndResets(t *testing.T) {
	l := newTestLogger(t, 8)
	// Block 1: 15 accesses, block 2: 10, block 3: 9, block 4: 1.
	for i, n := range map[uint64]int{1: 15, 2: 10, 3: 9, 4: 1} {
		for j := 0; j < n; j++ {
			if err := l.LogRun(key(i), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	selected, err := l.EndEpoch(DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(selected) != 2 {
		t.Fatalf("selected %v", selected)
	}
	// Descending count order: block 1 first.
	if selected[0] != key(1) || selected[1] != key(2) {
		t.Errorf("selected order = %v", selected)
	}
	// Logs must be reset.
	if l.TupleCount() != 0 {
		t.Errorf("tuples after epoch = %d", l.TupleCount())
	}
	next, err := l.EndEpoch(DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 0 {
		t.Errorf("second epoch should be empty, got %v", next)
	}
}

func TestEndEpochDeterministicTies(t *testing.T) {
	l := newTestLogger(t, 8)
	for _, k := range []uint64{9, 3, 7, 1} {
		for j := 0; j < 12; j++ {
			if err := l.LogRun(key(k), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	sel, err := l.EndEpoch(10)
	if err != nil {
		t.Fatal(err)
	}
	want := []block.Key{key(1), key(3), key(7), key(9)}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("tie order = %v", sel)
		}
	}
}

func TestLoggerClosedRejectsWrites(t *testing.T) {
	l := newTestLogger(t, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.LogRun(key(1), 1); err == nil {
		t.Error("Log after Close should fail")
	}
	if err := l.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestSpillFilesOnDisk(t *testing.T) {
	dir := t.TempDir()
	l, err := NewLogger(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 100; i++ {
		if err := l.LogRun(key(uint64(i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := filepath.Glob(filepath.Join(dir, "part-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 3 {
		t.Errorf("found %d spill files, want 3", len(matches))
	}
	// Partitioning should spread keys (not all in one file).
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil && fi.Size() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("only %d non-empty partitions; hash partitioning broken?", nonEmpty)
	}
}

func BenchmarkLogAndReduce(b *testing.B) {
	l, err := NewLogger(b.TempDir(), DefaultPartitions)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.LogRun(key(uint64(i%100000)), 1); err != nil {
			b.Fatal(err)
		}
		// Periodic incremental reduction, as the paper prescribes.
		if i > 0 && i%1_000_000 == 0 {
			b.StopTimer()
			if err := l.Compact(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

func TestSelectKeepsLogsUntilReset(t *testing.T) {
	l := newTestLogger(t, 4)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			if err := l.LogRun(key(uint64(i)), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	keys, err := l.Select(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5 {
		t.Fatalf("selected %d keys, want 5", len(keys))
	}
	// A failed transition retries Select: the logs must be intact.
	again, err := l.Select(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 5 {
		t.Fatalf("re-select after no Reset got %d keys, want 5", len(again))
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	empty, err := l.Select(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("select after Reset got %d keys, want 0", len(empty))
	}
}

func TestResetKeepsTuplesLoggedAfterSelect(t *testing.T) {
	l := newTestLogger(t, 4)
	for j := 0; j < 4; j++ {
		if err := l.LogRun(key(1), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Select(2); err != nil {
		t.Fatal(err)
	}
	// Accesses logged while the epoch transition is in flight must carry
	// into the next epoch, not be wiped by Reset.
	for j := 0; j < 2; j++ {
		if err := l.LogRun(key(2), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	got := map[block.Key]int64{}
	if err := l.Counts(func(k block.Key, c int64) { got[k] += c }); err != nil {
		t.Fatal(err)
	}
	if got[key(1)] != 0 {
		t.Fatalf("key 1 survived Reset with count %d, want 0", got[key(1)])
	}
	if got[key(2)] != 2 {
		t.Fatalf("key 2 after Reset has count %d, want 2", got[key(2)])
	}
}

func TestConcurrentLoggingDuringSelect(t *testing.T) {
	l := newTestLogger(t, 4)
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				done <- n
				return
			default:
			}
			if err := l.LogRun(key(uint64(n%7)), 1); err != nil {
				t.Error(err)
				done <- n
				return
			}
			n++
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := l.Select(1); err != nil {
			t.Fatal(err)
		}
		if err := l.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	logged := <-done
	// Every tuple logged must land either in a Select or survive into the
	// current logs — none lost, none double-counted.
	var remaining int64
	if err := l.Counts(func(_ block.Key, c int64) { remaining += c }); err != nil {
		t.Fatal(err)
	}
	if remaining > int64(logged) {
		t.Fatalf("logs hold %d accesses but only %d were logged", remaining, logged)
	}
}

// TestCompactConcurrentWithCounts: Compact rewrites (truncates) partition
// files in place, while Counts reads them without holding l.mu. The
// per-partition rewrite lock must keep a racing reduction from seeing a
// torn file — every read yields either the pre- or post-compaction
// contents, and the total count is conserved throughout.
func TestCompactConcurrentWithCounts(t *testing.T) {
	// One partition concentrates the contention. Few distinct keys logged
	// many times make the uncompacted file far larger than the 64 KiB read
	// buffer while compaction shrinks it to under a kilobyte: a reduction
	// takes many read syscalls, and a racing rewrite that truncates the
	// inode mid-read cuts off most of the tuples the reader had measured.
	l := newTestLogger(t, 1)
	const (
		keys    = 64
		repeats = 2000
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // compactor churns continuously
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 1; round <= 10; round++ {
		for i := 0; i < repeats; i++ {
			for k := 0; k < keys; k++ {
				if err := l.LogRun(key(uint64(k)), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		var total int64
		if err := l.Counts(func(_ block.Key, c int64) { total += c }); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if want := int64(round * keys * repeats); total != want {
			t.Fatalf("round %d: counts = %d, want %d (a concurrent compaction tore the read)", round, total, want)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLogRunMatchesIndividualLogs logs the same runs — inside a page,
// unaligned across pages, longer than 128 blocks — block by block and
// through LogRun: same tuples, same counts, and every tuple in the
// partition its key's page hashes to.
func TestLogRunMatchesIndividualLogs(t *testing.T) {
	mk := func(dir string) *Logger {
		l, err := NewLogger(dir, 8)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	one, run := mk(t.TempDir()), mk(t.TempDir())
	for i, r := range []struct {
		first uint64
		n     int
	}{{0, 8}, {8, 1}, {13, 1}, {5, 8}, {3, 70}, {1000, 200}, {4, 4}, {0, 8}, {7, 2}} {
		first := block.MakeKey(1, i%2, r.first)
		for k := first; k < first+block.Key(r.n); k++ {
			if err := one.LogRun(k, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := run.LogRun(first, r.n); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := one.TupleCount(), run.TupleCount(); a != b {
		t.Fatalf("tuple counts differ: %d vs %d", a, b)
	}
	counts := func(l *Logger) map[block.Key]int64 {
		m := make(map[block.Key]int64)
		if err := l.Counts(func(k block.Key, c int64) { m[k] += c }); err != nil {
			t.Fatal(err)
		}
		return m
	}
	ca, cb := counts(one), counts(run)
	if len(ca) != len(cb) {
		t.Fatalf("distinct keys differ: %d vs %d", len(ca), len(cb))
	}
	for k, v := range ca {
		if cb[k] != v {
			t.Errorf("key %v: run count %d, want %d", k, cb[k], v)
		}
	}
	for p := range run.parts {
		run.parts[p].mu.Lock()
		tuples, err := run.readPartitionLocked(p)
		run.parts[p].mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range tuples {
			if want := run.partitionIndex(tu.key); want != p {
				t.Errorf("key %v logged to partition %d, hashes to %d", tu.key, p, want)
			}
			if page := tu.key &^ (block.BlocksPerPage - 1); run.partitionIndex(page) != p {
				t.Errorf("key %v is not in its page's partition", tu.key)
			}
		}
	}
}

// TestLogRunAllocations: logging a request allocates nothing, whatever its
// length (the partition buffers flush into files; no slice, no sort).
func TestLogRunAllocations(t *testing.T) {
	l := newTestLogger(t, DefaultPartitions)
	for _, n := range []int{1, 8, 128} {
		first := block.MakeKey(0, 1, 5)
		if a := testing.AllocsPerRun(100, func() {
			if err := l.LogRun(first, n); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("LogRun of %d blocks: %v allocations, want 0", n, a)
		}
	}
}

func TestConcurrentLogRunPartitions(t *testing.T) {
	l, err := NewLogger(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := l.LogRun(block.MakeKey(w%2, 0, uint64(i*16+3)), 16); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := l.TupleCount(), int64(workers*100*16); got != want {
		t.Fatalf("TupleCount = %d, want %d", got, want)
	}
}
