package appliance

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/sieve"
	"repro/internal/store"
)

// startServer spins up a server over an in-memory ensemble and returns a
// connected client.
func startServer(t *testing.T) (*Client, *core.Store, *store.Mem) {
	t.Helper()
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<24)
	be.AddVolume(1, 0, 1<<24)
	st, err := core.Open(be, core.Options{
		CacheBytes: 256 * block.Size,
		SieveC:     sieve.CConfig{IMCTSize: 1 << 16, T1: 2, T2: 1, Window: time.Hour, Subwindows: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	client, err := DialWith(l.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		<-done
		st.Close()
	})
	return client, st, be
}

func TestReadWriteRoundTrip(t *testing.T) {
	client, _, _ := startServer(t)
	data := bytes.Repeat([]byte{0xC4}, 2048)
	if err := client.WriteAt(0, 0, data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2048)
	if err := client.ReadAt(0, 0, got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	client, _, _ := startServer(t)
	// Unaligned I/O is rejected by the core and must surface as a
	// RemoteError, leaving the connection usable.
	err := client.ReadAt(0, 0, make([]byte, 100), 0)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	// Connection still alive.
	if err := client.WriteAt(0, 0, make([]byte, 512), 0); err != nil {
		t.Fatalf("connection wedged: %v", err)
	}
	// Unknown volume errors too.
	if err := client.ReadAt(7, 3, make([]byte, 512), 0); err == nil {
		t.Error("unknown volume should fail")
	}
}

func TestStatsOverWire(t *testing.T) {
	client, st, _ := startServer(t)
	if err := client.WriteAt(0, 0, make([]byte, 1024), 0); err != nil {
		t.Fatal(err)
	}
	remote, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	local := st.Stats()
	if remote.Writes != local.Writes || remote.Writes != 2 {
		t.Errorf("remote stats = %+v, local = %+v", remote, local)
	}
	if remote.CapacityBlocks != 256 {
		t.Errorf("capacity = %d", remote.CapacityBlocks)
	}
}

func TestCacheVisibleThroughWire(t *testing.T) {
	client, st, be := startServer(t)
	seed := bytes.Repeat([]byte{9}, 512)
	if err := be.WriteAt(1, 0, seed, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 3; i++ {
		if err := client.ReadAt(1, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Contains(1, 0, 0) {
		t.Error("hot block not admitted via appliance path")
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.AllocWrites != 1 {
		t.Errorf("alloc-writes = %d", stats.AllocWrites)
	}
}

func TestConcurrentClients(t *testing.T) {
	client0, _, _ := startServer(t)
	addr := client0.conn.RemoteAddr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := DialWith(addr, DialOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			buf := make([]byte, 512)
			for i := 0; i < 100; i++ {
				off := uint64((g*13 + i) % 100 * 512)
				if i%2 == 0 {
					err = c.WriteAt(0, 0, buf, off)
				} else {
					err = c.ReadAt(0, 0, buf, off)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := preamble{op: OpWrite, server: 12, volume: 4, offset: 1 << 40, length: 65536}
	buf := make([]byte, preambleSize)
	h.encode(buf)
	got, err := decodePreamble(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("got %+v, want %+v", got, h)
	}
}

func TestDecodeHeaderRejectsGarbage(t *testing.T) {
	buf := make([]byte, preambleSize)
	buf[0] = 0xFF
	if _, err := decodePreamble(buf); !errors.Is(err, ErrProtocol) {
		t.Errorf("bad magic: %v", err)
	}
	h := preamble{op: OpRead, length: MaxIOBytes + 1}
	h.encode(buf)
	if _, err := decodePreamble(buf); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized length: %v", err)
	}
}

func TestOversizedClientIORejectedLocally(t *testing.T) {
	client, _, _ := startServer(t)
	big := make([]byte, MaxIOBytes+512)
	if err := client.ReadAt(0, 0, big, 0); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized read: %v", err)
	}
	if err := client.WriteAt(0, 0, big, 0); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized write: %v", err)
	}
}

func TestServerCloseUnblocksServe(t *testing.T) {
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<20)
	st, err := core.Open(be, core.Options{CacheBytes: 64 * block.Size})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := NewServer(st)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("Serve returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}

func BenchmarkRoundTrip4K(b *testing.B) {
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<24)
	st, err := core.Open(be, core.Options{CacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv := NewServer(st)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	client, err := DialWith(l.Addr().String(), DialOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			if err := client.WriteAt(0, 0, buf, 0); err != nil {
				b.Fatal(err)
			}
		} else if err := client.ReadAt(0, 0, buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClientIDRangeValidation: the wire header carries server/volume as
// uint16, so the client must reject out-of-range IDs up front with a typed
// error instead of silently truncating them onto some other volume.
func TestClientIDRangeValidation(t *testing.T) {
	client, _, _ := startServer(t)
	buf := make([]byte, 512)
	for _, ids := range [][2]int{{1 << 16, 0}, {0, 1 << 16}, {-1, 0}, {0, -1}} {
		if err := client.ReadAt(ids[0], ids[1], buf, 0); !errors.Is(err, ErrIDRange) {
			t.Errorf("ReadAt(%d,%d) = %v, want ErrIDRange", ids[0], ids[1], err)
		}
		if err := client.WriteAt(ids[0], ids[1], buf, 0); !errors.Is(err, ErrIDRange) {
			t.Errorf("WriteAt(%d,%d) = %v, want ErrIDRange", ids[0], ids[1], err)
		}
		if _, err := client.Invalidate(ids[0], ids[1], 0, 512); !errors.Is(err, ErrIDRange) {
			t.Errorf("Invalidate(%d,%d) = %v, want ErrIDRange", ids[0], ids[1], err)
		}
	}
	// The boundary IDs are legal and the connection is still healthy. The
	// demo ensemble has no volume 65535, so a RemoteError (not ErrIDRange,
	// not a broken connection) is the expected outcome.
	var remote *RemoteError
	if err := client.ReadAt(0xFFFF, 0xFFFF, buf, 0); !errors.As(err, &remote) {
		t.Errorf("boundary IDs: %v, want RemoteError from the server", err)
	}
	if err := client.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatalf("connection unusable after rejected requests: %v", err)
	}
}
