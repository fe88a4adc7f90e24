package sieved

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/block"
)

func TestOpenLoggerResumesEpoch(t *testing.T) {
	dir := t.TempDir()
	l1, err := NewLogger(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := l1.LogRun(key(7), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := l1.LogRun(key(9), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := l1.Close(); err != nil { // simulate a clean shutdown mid-epoch
		t.Fatal(err)
	}

	l2, err := OpenLogger(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// Continue the epoch: key 9 gets 5 more accesses, crossing the
	// threshold only if the pre-restart tuples survived.
	for i := 0; i < 5; i++ {
		if err := l2.LogRun(key(9), 1); err != nil {
			t.Fatal(err)
		}
	}
	selected, err := l2.EndEpoch(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(selected) != 2 {
		t.Fatalf("selected = %v, want keys 7 and 9", selected)
	}
	if selected[0] != key(7) || selected[1] != key(9) {
		t.Errorf("selected = %v", selected)
	}
}

func TestNewLoggerTruncatesOldEpoch(t *testing.T) {
	dir := t.TempDir()
	l1, err := NewLogger(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l1.LogRun(key(1), 1); err != nil {
			t.Fatal(err)
		}
	}
	l1.Close()
	// NewLogger (unlike OpenLogger) starts a fresh epoch.
	l2, err := NewLogger(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	selected, err := l2.EndEpoch(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(selected) != 0 {
		t.Errorf("fresh logger inherited tuples: %v", selected)
	}
}

func TestOpenLoggerSalvagesTornTuple(t *testing.T) {
	dir := t.TempDir()
	l1, err := NewLogger(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if err := l1.LogRun(key(3), 1); err != nil {
			t.Fatal(err)
		}
	}
	l1.Close()
	// Simulate a crash mid-write: append garbage that decodes as a key
	// varint but is truncated before the count.
	path := filepath.Join(dir, "part-0000.log")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 0xFF continues a varint forever: a torn multi-byte varint tail.
	if _, err := f.Write([]byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := OpenLogger(dir, 1)
	if err != nil {
		t.Fatalf("salvage failed: %v", err)
	}
	defer l2.Close()
	selected, err := l2.EndEpoch(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(selected) != 1 || selected[0] != key(3) {
		t.Errorf("salvaged selection = %v", selected)
	}
}

// TestOpenLoggerRebucketsAcrossPartitionCounts is the regression test for
// in-place salvage: a restart that changes the partition count (core sizes
// it from Shards) moves keys between partitions, and tuples left where they
// were found — or in files past the new count, never read again — split a
// key's epoch count so that it misses the threshold.
func TestOpenLoggerRebucketsAcrossPartitionCounts(t *testing.T) {
	for _, tc := range []struct{ before, after int }{{16, 32}, {32, 16}} {
		dir := t.TempDir()
		l1, err := NewLogger(dir, tc.before)
		if err != nil {
			t.Fatal(err)
		}
		// A key the restart moves to another partition file.
		moved := key(0)
		for other := &(Logger{parts: make([]*partition, tc.after)}); l1.partitionIndex(moved) == other.partitionIndex(moved); {
			moved += block.BlocksPerPage
		}
		for i := 0; i < 6; i++ {
			if err := l1.LogRun(moved, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := l1.Close(); err != nil {
			t.Fatal(err)
		}

		l2, err := OpenLogger(dir, tc.after)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		for i := 0; i < 6; i++ {
			if err := l2.LogRun(moved, 1); err != nil {
				t.Fatal(err)
			}
		}
		selected, err := l2.Select(10)
		if err != nil {
			t.Fatal(err)
		}
		if len(selected) != 1 || selected[0] != moved {
			t.Errorf("%d → %d partitions: selected %v, want the key logged 6 + 6 times", tc.before, tc.after, selected)
		}
		if files, _ := filepath.Glob(filepath.Join(dir, "part-*.log")); len(files) != tc.after {
			t.Errorf("%d → %d partitions: %d partition files left", tc.before, tc.after, len(files))
		}
	}
}

// A resume that dies part-way through re-bucketing (here: a stray partition
// file that cannot be opened) must leave a state the next resume finishes
// exactly: every tuple counted once, none lost, none doubled.
func TestOpenLoggerFinishesInterruptedRebucket(t *testing.T) {
	dir := t.TempDir()
	l1, err := NewLogger(dir, 32)
	if err != nil {
		t.Fatal(err)
	}
	want := map[block.Key]int64{}
	for page := uint64(0); page < 400; page++ {
		k := key(page*block.BlocksPerPage + page%block.BlocksPerPage)
		for i := uint64(0); i <= page%3; i++ {
			if err := l1.LogRun(k, 1); err != nil {
				t.Fatal(err)
			}
			want[k]++
		}
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	// part-0020.log is a stray for a 16-partition logger; files sort before
	// it are absorbed, then the resume fails on the dangling link.
	stray, aside := l1.partitionPath(20), filepath.Join(dir, "aside")
	if fi, err := os.Stat(stray); err != nil || fi.Size() == 0 {
		t.Fatalf("partition 20 holds nothing to lose: %v", err)
	}
	if err := os.Rename(stray, aside); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dir, "missing"), stray); err != nil {
		t.Fatal(err)
	}
	if l, err := OpenLogger(dir, 16); err == nil {
		l.Close()
		t.Fatal("resume over an unreadable partition file succeeded")
	}
	if _, err := os.Stat(l1.partitionPath(16)); !os.IsNotExist(err) {
		t.Fatalf("the failed resume absorbed nothing before it stopped: %v", err)
	}
	if err := os.Remove(stray); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, stray); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLogger(dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := map[block.Key]int64{}
	if err := l2.Counts(func(k block.Key, c int64) { got[k] += c }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d keys after the second resume, logged %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Errorf("key %v: count %d, logged %d", k, got[k], c)
		}
	}
	for p := range l2.parts {
		tuples, err := l2.readPartitionRange(p, 0, 1<<62)
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range tuples {
			if l2.partitionIndex(tu.key) != p {
				t.Fatalf("key %v sits in partition %d, maps to %d", tu.key, p, l2.partitionIndex(tu.key))
			}
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "part-*.log")); len(files) != 16 {
		t.Errorf("%d partition files left, want 16", len(files))
	}
}

func TestOpenLoggerOnEmptyDirIsFresh(t *testing.T) {
	l, err := OpenLogger(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.LogRun(block.MakeKey(0, 0, 1), 1); err != nil {
		t.Fatal(err)
	}
	sel, err := l.EndEpoch(1)
	if err != nil || len(sel) != 1 {
		t.Errorf("sel = %v, err = %v", sel, err)
	}
}
