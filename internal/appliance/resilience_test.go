package appliance

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/sieve"
	"repro/internal/store"
)

// startServerWith is startServer with ServerOptions, returning the server
// and its address so tests can dial with their own DialOptions.
func startServerWith(t *testing.T, opts ServerOptions) (*Server, string) {
	t.Helper()
	return startWrappedServer(t, opts, func(st BlockStore) BlockStore { return st })
}

// startWrappedServer is startServerWith serving wrap(store) in place of
// the store.
func startWrappedServer(t *testing.T, opts ServerOptions, wrap func(BlockStore) BlockStore) (*Server, string) {
	t.Helper()
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<24)
	st, err := core.Open(be, core.Options{
		CacheBytes: 256 * block.Size,
		SieveC:     sieve.CConfig{IMCTSize: 1 << 16, T1: 2, T2: 1, Window: time.Hour, Subwindows: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(wrap(st), opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
		st.Close()
	})
	return srv, l.Addr().String()
}

// redials is how many times c has redialed: its connection generation,
// which starts at 0 on the dialed connection and which every redial bumps.
func redials(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

func TestClientReconnectsAfterBrokenConn(t *testing.T) {
	_, addr := startServerWith(t, ServerOptions{})
	c, err := DialWith(addr, DialOptions{MaxReconnects: 3, ReconnectBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := bytes.Repeat([]byte{0x7E}, 1024)
	if err := c.WriteAt(0, 0, data, 0); err != nil {
		t.Fatal(err)
	}

	// Sever the wire out from under the client; the next op must redial
	// transparently instead of failing with ErrBrokenConn forever.
	c.mu.Lock()
	c.conn.Close()
	c.mu.Unlock()

	got := make([]byte, 1024)
	if err := c.ReadAt(0, 0, got, 0); err != nil {
		t.Fatalf("read after severed conn: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reconnected read returned wrong data")
	}
	if n := redials(c); n != 1 {
		t.Fatalf("redials = %d, want 1", n)
	}
}

func TestClientReconnectMidWorkload(t *testing.T) {
	_, addr := startServerWith(t, ServerOptions{})
	c, err := DialWith(addr, DialOptions{MaxReconnects: 5, ReconnectBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	buf := make([]byte, 512)
	for i := 0; i < 50; i++ {
		want := byte(i)
		for j := range buf {
			buf[j] = want
		}
		if err := c.WriteAt(0, 0, buf, uint64(i)*512); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if i%10 == 5 {
			c.mu.Lock()
			c.conn.Close() // chaos: drop the connection every 10 ops
			c.mu.Unlock()
		}
		got := make([]byte, 512)
		if err := c.ReadAt(0, 0, got, uint64(i)*512); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got[0] != want {
			t.Fatalf("op %d: got %#x want %#x", i, got[0], want)
		}
	}
	if redials(c) == 0 {
		t.Fatal("no reconnects recorded despite dropped connections")
	}
}

func TestClientWithoutReconnectStaysBroken(t *testing.T) {
	_, addr := startServerWith(t, ServerOptions{})
	c, err := DialWith(addr, DialOptions{}) // zero DialOptions: historical semantics
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.mu.Lock()
	c.fail(errors.New("test: severed"))
	c.mu.Unlock()
	if err := c.ReadAt(0, 0, make([]byte, 512), 0); !errors.Is(err, ErrBrokenConn) {
		t.Fatalf("err = %v, want ErrBrokenConn", err)
	}
}

func TestServerMaxConnsRejectsWithBusy(t *testing.T) {
	srv, addr := startServerWith(t, ServerOptions{MaxConns: 1})

	c1, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// Make sure c1's connection is actually registered server-side before
	// dialing the second client (accept is asynchronous).
	if err := c1.WriteAt(0, 0, make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}

	c2, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.ReadAt(0, 0, make([]byte, 512), 0); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("over-cap client err = %v, want ErrServerBusy", err)
	}
	if srv.StatsSnapshot().BusyRejects == 0 {
		t.Fatal("BusyRejects did not count the rejection")
	}

	// Freeing the slot lets a reconnecting client in.
	c1.Close()
	c3, err := DialWith(addr, DialOptions{MaxReconnects: 5, ReconnectBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = c3.ReadAt(0, 0, make([]byte, 512), 0); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerIdleTimeoutDropsDeadPeer(t *testing.T) {
	srv, addr := startServerWith(t, ServerOptions{IdleTimeout: 50 * time.Millisecond})
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteAt(0, 0, make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	// Go quiet past the idle limit: the server must drop the connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection was never dropped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The client finds out on its next op and, without reconnects, breaks.
	if err := c.ReadAt(0, 0, make([]byte, 512), 0); err == nil {
		t.Fatal("op on an idle-dropped connection succeeded")
	}
}

// A peer that stalls mid-frame is dropped: the idle bound covers the rest
// of a frame once its header has arrived, not only the wait for the next
// header.
func TestIdleTimeoutDropsPeerStalledMidFrame(t *testing.T) {
	const idle = 50 * time.Millisecond
	srv, addr := startServerWith(t, ServerOptions{IdleTimeout: idle})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawHandshake(t, conn)
	// A 4 KiB write's header and its first 100 bytes, then silence.
	var frame [headerSize + 100]byte
	(&header{op: OpWrite, tag: 1, length: 4096}).encode(frame[:])
	if _, err := conn.Write(frame[:]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * idle)
	for {
		n := srv.StatsSnapshot().ActiveConns
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer stalled mid-payload still holds %d connection(s) after 10x IdleTimeout", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// slowWrites is a store whose every write takes d.
type slowWrites struct {
	BlockStore
	d time.Duration
}

func (s slowWrites) WriteAt(server, volume int, p []byte, off uint64) error {
	time.Sleep(s.d)
	return s.BlockStore.WriteAt(server, volume, p, off)
}

// Regression: a frame's deadline left armed after the pipeline drained
// closed a healthy connection that had sat quiet for less than the bound.
// The idle bound runs from when the pipeline drains, and a request's time
// in the store does not count against it: here a write takes 1.5×
// IdleTimeout in the store, and the next request follows its response
// within a quarter of the bound.
func TestIOTimeoutDoesNotCloseIdleConnection(t *testing.T) {
	const idle = 200 * time.Millisecond
	_, addr := startWrappedServer(t, ServerOptions{IdleTimeout: idle}, func(st BlockStore) BlockStore {
		return slowWrites{st, 3 * idle / 2}
	})
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 512)
	if err := c.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatalf("write slower than IdleTimeout: %v", err)
	}
	time.Sleep(idle / 4)
	if err := c.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatalf("read %v after a slow write's response: %v", idle/4, err)
	}
}

func TestClientRoundTripTimeout(t *testing.T) {
	// A listener that accepts and then never responds models a hung
	// appliance; the per-roundtrip deadline must fail the op instead of
	// blocking forever.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never answer
		}
	}()

	c, err := DialWith(l.Addr().String(), DialOptions{Timeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.ReadAt(0, 0, make([]byte, 512), 0)
	if err == nil {
		t.Fatal("read against a hung server succeeded")
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("deadline did not bound the round trip (%v)", el)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a net timeout", err)
	}
}
