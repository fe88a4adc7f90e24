package appliance

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/sieve"
	"repro/internal/store"
)

// startLatencyServer is startServer with Options.TrackLatency enabled.
func startLatencyServer(t *testing.T) *Client {
	t.Helper()
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<24)
	st, err := core.Open(be, core.Options{
		CacheBytes:   256 * block.Size,
		SieveC:       sieve.CConfig{IMCTSize: 1 << 16, T1: 1, T2: 1, Window: time.Hour, Subwindows: 4},
		TrackLatency: true,
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
	return client
}

// TestClientBreaksOnTransportError: a mid-frame transport failure leaves
// the wire position unknown, so the client must refuse further use instead
// of misparsing stale bytes (the pre-fix behavior).
func TestClientBreaksOnTransportError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Fake appliance: complete the handshake, answer the first read with
	// an OK status but only half the payload, then slam the connection.
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if !serveHelloV2(br, conn) {
			return
		}
		hdr := make([]byte, headerSize)
		if _, err := io.ReadFull(br, hdr); err != nil {
			return
		}
		h, _ := decodeHeader(hdr)
		var head [respHeadSize]byte
		respHead(head[:], h.tag, statusOK)
		conn.Write(head[:])
		conn.Write(make([]byte, h.length/2))
	}()

	c, err := DialWith(l.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 1024)
	if err := c.ReadAt(0, 0, buf, 0); err == nil {
		t.Fatal("truncated response did not error")
	} else if errors.Is(err, ErrBrokenConn) {
		t.Fatalf("first failure should be the transport error itself, got %v", err)
	}
	// Every subsequent call must fail fast with the distinct broken error.
	if err := c.WriteAt(0, 0, make([]byte, 512), 0); !errors.Is(err, ErrBrokenConn) {
		t.Errorf("WriteAt after transport error: want ErrBrokenConn, got %v", err)
	}
	if _, err := c.Stats(); !errors.Is(err, ErrBrokenConn) {
		t.Errorf("Stats after transport error: want ErrBrokenConn, got %v", err)
	}
	if _, err := c.Invalidate(0, 0, 0, 512); !errors.Is(err, ErrBrokenConn) {
		t.Errorf("Invalidate after transport error: want ErrBrokenConn, got %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("Close of broken client: %v", err)
	}
}

// TestServeRejectsDoubleServe: a second Serve call must not clobber the
// first listener.
func TestServeRejectsDoubleServe(t *testing.T) {
	srv := NewServer(nil)
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l1) }()
	time.Sleep(10 * time.Millisecond)
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := srv.Serve(l2); !errors.Is(err, ErrAlreadyServing) {
		t.Errorf("second Serve: want ErrAlreadyServing, got %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve after Close: want net.ErrClosed, got %v", err)
	}
	// A closed server refuses to serve again.
	if err := srv.Serve(l2); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve on closed server: want net.ErrClosed, got %v", err)
	}
}

// TestWriteErrTruncatesAtRuneBoundary: the 65535-byte error-message cap
// must not split a multi-byte UTF-8 sequence.
func TestWriteErrTruncatesAtRuneBoundary(t *testing.T) {
	// 3-byte runes aligned so the cap lands mid-rune: 65535 = 3*21845, so
	// prefix with one ASCII byte to misalign.
	long := "x" + strings.Repeat("世", 25000) // 1 + 75000 bytes
	got := truncateErrMsg(long, maxErrMsg)
	if len(got) > maxErrMsg {
		t.Fatalf("truncated to %d bytes, cap %d", len(got), maxErrMsg)
	}
	if !utf8.ValidString(got) {
		t.Error("truncation produced invalid UTF-8")
	}
	if len(got) < maxErrMsg-utf8.UTFMax {
		t.Errorf("over-truncated: %d bytes", len(got))
	}
	if s := truncateErrMsg("short", maxErrMsg); s != "short" {
		t.Errorf("short message altered: %q", s)
	}
	// End-to-end: a remote error built from a huge message arrives valid.
	client, _, _ := startServer(t)
	big := make([]byte, 512)
	err := client.WriteAt(7, 0, big, 0) // unknown volume → remote error
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if !utf8.ValidString(remote.Msg) {
		t.Error("remote error message is invalid UTF-8")
	}
}

// TestOutOfRangeIDsRejectedNotPanic: server/volume IDs that don't fit the
// packed block.Key must come back as a remote error, not panic the daemon
// (block.MakeKey panics on out-of-range components). Writes must also stay
// frame-aligned: the rejected payload is drained, not left on the wire.
func TestOutOfRangeIDsRejectedNotPanic(t *testing.T) {
	client, _, _ := startServer(t)
	var remote *RemoteError
	if err := client.ReadAt(block.MaxServers, 0, make([]byte, 512), 0); !errors.As(err, &remote) {
		t.Fatalf("out-of-range server read: want RemoteError, got %v", err)
	}
	if err := client.WriteAt(0, block.MaxVolumes+3, make([]byte, 4096), 0); !errors.As(err, &remote) {
		t.Fatalf("out-of-range volume write: want RemoteError, got %v", err)
	}
	// The connection survived both rejections and is still aligned.
	if err := client.ReadAt(0, 0, make([]byte, 512), 0); err != nil {
		t.Fatalf("connection wedged after out-of-range rejections: %v", err)
	}
}

// TestApplianceConcurrentStress drives one appliance with many concurrent
// clients issuing overlapping reads, writes, invalidates and stats calls
// against a shared store — the satellite -race stress test. Each client
// owns a disjoint block range and checks read-your-writes within it.
func TestApplianceConcurrentStress(t *testing.T) {
	const (
		clients = 8
		ops     = 150
		span    = 32 // 4 KiB chunks per client
	)
	client0, _, _ := startServer(t)
	addr := client0.conn.RemoteAddr().String()

	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := DialWith(addr, DialOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			base := uint64(g*span) * 4096
			payload := bytes.Repeat([]byte{byte(g + 1)}, 4096)
			buf := make([]byte, 4096)
			written := make(map[uint64]bool)
			for i := 0; i < ops; i++ {
				off := base + uint64((i*11)%span)*4096
				var err error
				switch i % 4 {
				case 0, 1:
					err = c.WriteAt(0, 0, payload, off)
					if err == nil {
						written[off] = true
					}
				case 2:
					err = c.ReadAt(0, 0, buf, off)
					if err == nil && written[off] && !bytes.Equal(buf, payload) {
						t.Errorf("client %d: stale read at %d", g, off)
						return
					}
				case 3:
					if i%8 == 3 {
						_, err = c.Invalidate(0, 0, off, 4096)
					} else {
						_, err = c.Stats()
					}
				}
				if err != nil {
					t.Errorf("client %d op %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st, err := client0.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CachedBlocks > st.CapacityBlocks {
		t.Errorf("occupancy %d exceeds capacity %d", st.CachedBlocks, st.CapacityBlocks)
	}
	if st.Hits() > st.Reads+st.Writes {
		t.Errorf("hits %d exceed accesses %d", st.Hits(), st.Reads+st.Writes)
	}
}

// TestApplianceShardedStore runs the wire protocol against a Shards=8
// store: many clients hammering overlapping ranges, with one goroutine
// issuing cross-shard Flush/Invalidate admin calls throughout. Exercises
// the per-shard reservation and staged cross-shard protocols end-to-end
// (per-connection handlers run concurrently, so shard locks really
// interleave under -race).
func TestApplianceShardedStore(t *testing.T) {
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<24)
	st, err := core.Open(be, core.Options{
		CacheBytes: 256 * block.Size,
		Shards:     8,
		SieveC:     sieve.CConfig{IMCTSize: 1 << 16, T1: 1, T2: 1, Window: time.Hour, Subwindows: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", st.Shards())
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
	defer func() {
		srv.Close()
		<-done
		st.Close()
	}()
	addr := l.Addr().String()

	const (
		clients = 6
		ops     = 200
		span    = 24 // 4 KiB chunks per client — multi-block ops cross shards
	)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := DialWith(addr, DialOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			base := uint64(g*span) * 4096
			payload := bytes.Repeat([]byte{byte(g + 1)}, 4096)
			buf := make([]byte, 4096)
			written := make(map[uint64]bool)
			for i := 0; i < ops; i++ {
				off := base + uint64((i*7)%span)*4096
				switch i % 3 {
				case 0:
					if err := c.WriteAt(0, 0, payload, off); err != nil {
						t.Errorf("client %d write: %v", g, err)
						return
					}
					written[off] = true
				default:
					if err := c.ReadAt(0, 0, buf, off); err != nil {
						t.Errorf("client %d read: %v", g, err)
						return
					}
					if written[off] && !bytes.Equal(buf, payload) {
						t.Errorf("client %d: stale read at %d", g, off)
						return
					}
				}
			}
		}(g)
	}
	// Admin churn: flushes and invalidates of a range nobody asserts on,
	// racing the data path across all shards.
	adminStop := make(chan struct{})
	var adminWg sync.WaitGroup
	adminWg.Add(1)
	go func() {
		defer adminWg.Done()
		c, err := DialWith(addr, DialOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		scratch := uint64(clients*span) * 4096
		for i := 0; ; i++ {
			select {
			case <-adminStop:
				return
			default:
			}
			if i%2 == 0 {
				if _, err := c.Invalidate(0, 0, scratch, 16*4096); err != nil {
					t.Errorf("admin invalidate: %v", err)
					return
				}
			} else if _, err := c.Stats(); err != nil {
				t.Errorf("admin stats: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(adminStop)
	adminWg.Wait()

	// Post-race invariants over the merged per-shard stats.
	s := st.Stats()
	if s.CachedBlocks > s.CapacityBlocks {
		t.Errorf("occupancy %d exceeds capacity %d", s.CachedBlocks, s.CapacityBlocks)
	}
	if s.Hits() > s.Reads+s.Writes {
		t.Errorf("hits %d exceed accesses %d", s.Hits(), s.Reads+s.Writes)
	}
	if s.FlushErrors != 0 {
		t.Errorf("flush errors against Mem backend: %d", s.FlushErrors)
	}
	// Every written block must be durable in cache or backend: a final
	// read-back through a fresh client sees each client's last pattern.
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 4096)
	for g := 0; g < clients; g++ {
		off := uint64(g*span) * 4096 // offset 0 is written by every client's op 0
		if err := c.ReadAt(0, 0, buf, off); err != nil {
			t.Fatal(err)
		}
		want := byte(g + 1)
		for i, b := range buf {
			if b != want {
				t.Fatalf("client %d block: byte %d = %#x, want %#x", g, i, b, want)
			}
		}
	}
}

// TestStatsCarriesLatencyOverWire: Options.TrackLatency counters must
// survive the OpStats JSON round trip.
func TestStatsCarriesLatencyOverWire(t *testing.T) {
	client := startLatencyServer(t)
	for i := 0; i < 4; i++ {
		if err := client.WriteAt(0, 0, make([]byte, 512), uint64(i)*512); err != nil {
			t.Fatal(err)
		}
		if err := client.ReadAt(0, 0, make([]byte, 512), uint64(i)*512); err != nil {
			t.Fatal(err)
		}
	}
	remote, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if remote.ReadLatency.Ops != 4 || remote.WriteLatency.Ops != 4 {
		t.Errorf("latency ops over wire = %d/%d, want 4/4 (%+v)",
			remote.ReadLatency.Ops, remote.WriteLatency.Ops, remote.ReadLatency)
	}
	if remote.ReadLatency.Mean() < 0 || remote.ReadLatency.MaxNanos < remote.ReadLatency.Mean().Nanoseconds() {
		t.Errorf("inconsistent latency snapshot: %+v", remote.ReadLatency)
	}
}
