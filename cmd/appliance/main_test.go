package main

import (
	"bytes"
	"errors"
	"flag"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/appliance"
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/sieve"
	"repro/internal/store"
)

func openTestStore(t *testing.T) *core.Store {
	t.Helper()
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<20)
	st, err := core.Open(be, core.Options{
		CacheBytes: 64 * block.Size,
		SieveC:     sieve.CConfig{IMCTSize: 1 << 10, T1: 1, T2: 1, Window: time.Hour, Subwindows: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestLoadSnapshotOpenErrors: a missing snapshot file is a silent cold
// start, but any other open failure must reach the caller (and its log
// line) instead of being swallowed.
func TestLoadSnapshotOpenErrors(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t)

	if loaded, err := loadSnapshot(st, filepath.Join(dir, "absent.snap")); loaded || err != nil {
		t.Fatalf("missing file: loaded=%v err=%v, want a cold start without error", loaded, err)
	}

	// A path below a regular file fails with ENOTDIR, which is not
	// fs.ErrNotExist (and, unlike a permission error, also fails as root).
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	if loaded, err := loadSnapshot(st, filepath.Join(file, "sieve.snap")); loaded || err == nil {
		t.Fatalf("unopenable path: loaded=%v err=%v, want the open error", loaded, err)
	}

	// Round trip: what writeSnapshot saved, loadSnapshot restores.
	buf := make([]byte, block.Size)
	for i := 0; i < 2; i++ {
		if err := st.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Contains(0, 0, 0) {
		t.Fatal("block not admitted")
	}
	snap := filepath.Join(dir, "sieve.snap")
	if err := writeSnapshot(st, snap); err != nil {
		t.Fatal(err)
	}
	warm := openTestStore(t)
	if loaded, err := loadSnapshot(warm, snap); !loaded || err != nil {
		t.Fatalf("saved snapshot: loaded=%v err=%v", loaded, err)
	}
	if !warm.Contains(0, 0, 0) {
		t.Fatal("snapshot block not restored")
	}
}

// TestWriteSnapshotFailureKeepsPrevious: a save that fails part-way — here
// SaveSnapshot on a closed store — leaves the previous snapshot
// byte-identical and no temp file behind.
func TestWriteSnapshotFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "sieve.snap")
	st := openTestStore(t)
	buf := make([]byte, block.Size)
	for i := 0; i < 2; i++ {
		if err := st.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeSnapshot(st, snap); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(st, snap); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("save from a closed store: err = %v, want core.ErrClosed", err)
	}
	if got, err := os.ReadFile(snap); err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("previous snapshot changed by a failed save (err %v)", err)
	}
	if _, err := os.Stat(snap + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// acceptFails is a listener whose second Accept waits for fail to close
// and then fails, as Accept does mid-run when the process is out of file
// descriptors.
type acceptFails struct {
	net.Listener
	accepted bool // only Serve's goroutine calls Accept
	fail     chan struct{}
}

func (l *acceptFails) Accept() (net.Conn, error) {
	if l.accepted {
		<-l.fail
		return nil, syscall.EMFILE
	}
	l.accepted = true
	return l.Listener.Accept()
}

// TestServeFailureShutsDown: when Serve fails, the daemon still closes the
// store, which writes an acknowledged write-back block to the file
// backend, and still saves the snapshot, before it exits non-zero.
func TestServeFailureShutsDown(t *testing.T) {
	dir := t.TempDir()
	for name, v := range map[string]string{"data": dir, "writeback": "true", "servers": "1",
		"volume-mb": "1", "cache-mb": "1", "snapshot": filepath.Join(dir, "sieve.snap")} {
		prev := flag.Lookup(name).Value.String()
		flag.Set(name, v)
		t.Cleanup(func() { flag.Set(name, prev) })
	}
	st, files := openStore()
	srv := appliance.NewServer(st)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &acceptFails{Listener: inner, fail: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	c, err := appliance.DialWith(inner.Addr().String(), appliance.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Writes of 0x11 until the sieve admits block 0, then one of 0x5A,
	// which the cache takes dirty: acknowledged, but not yet in the file.
	old, data := bytes.Repeat([]byte{0x11}, block.Size), bytes.Repeat([]byte{0x5A}, block.Size)
	for i := 0; !st.Contains(0, 0, 0); i++ {
		if i == 100 {
			t.Fatal("block 0 never admitted")
		}
		if err := c.WriteAt(0, 0, old, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteAt(0, 0, data, 0); err != nil {
		t.Fatal(err)
	}
	vol := filepath.Join(dir, "vol-000-000.img")
	if got, err := os.ReadFile(vol); err != nil || bytes.Equal(got[:block.Size], data) {
		t.Fatalf("write-back block already in the file before shutdown (err %v)", err)
	}

	close(l.fail)
	if err := shutdown(done, nil, srv, st, files); !errors.Is(err, syscall.EMFILE) {
		t.Fatalf("shutdown = %v, want the Accept error", err)
	}
	if got, err := os.ReadFile(vol); err != nil || !bytes.Equal(got[:block.Size], data) {
		t.Fatalf("acknowledged write-back block lost (err %v)", err)
	}
	if _, err := os.Stat(*snapshot); err != nil {
		t.Fatalf("no snapshot after a serve failure: %v", err)
	}
}

// TestStoreStatsLineCounters pins the counter part of the -stats line —
// everything before the latency fields, whose values are timings — for a
// tenant-tracking store that has served a fixed sequence of writes and
// reads, one of them past the volume's end.
func TestStoreStatsLineCounters(t *testing.T) {
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<20)
	st, err := core.Open(be, core.Options{
		CacheBytes:     64 * block.Size,
		SieveC:         sieve.CConfig{IMCTSize: 1 << 10, T1: 1, T2: 1, Window: time.Hour, Subwindows: 4},
		TrackLatency:   true,
		TenantTracking: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	page := make([]byte, 8*block.Size)
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 10; i++ {
			if err := st.WriteAt(0, 0, page, i*4096); err != nil {
				t.Fatal(err)
			}
			if err := st.ReadAt(0, 0, page, i*4096); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.ReadAt(0, 0, page, 1<<20); err == nil {
		t.Fatal("read past the volume's end succeeded")
	}
	line := storeStatsLine(st, appliance.NewServer(st))
	counters, lat, ok := strings.Cut(line, " rdLat=")
	if want := "stats: accesses=488 hit=49.2% cached=64/64 dirty=0 allocW=240 epochs=0 coalesced=0 tenants=1"; counters != want {
		t.Errorf("counters = %q\nwant       %q", counters, want)
	}
	if !ok || !strings.Contains(lat, " wrLat=") {
		t.Errorf("latency fields missing: %q", line)
	}
}
