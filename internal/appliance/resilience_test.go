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
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<24)
	st, err := core.Open(be, core.Options{
		CacheBytes: 256 * block.Size,
		SieveC:     sieve.CConfig{IMCTSize: 1 << 16, T1: 2, T2: 1, Window: time.Hour, Subwindows: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(st, opts)
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
	if c.Reconnects() != 1 {
		t.Fatalf("Reconnects = %d, want 1", c.Reconnects())
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
	if c.Reconnects() == 0 {
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
	if srv.BusyRejects() == 0 {
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

// Regression: the per-request I/O deadline was never cleared once the
// pipeline drained, so with IOTimeout set a connection that sat quiet
// longer than IOTimeout was closed under a healthy client.
func TestIOTimeoutDoesNotCloseIdleConnection(t *testing.T) {
	const ioTimeout = 50 * time.Millisecond
	_, addr := startServerWith(t, ServerOptions{IOTimeout: ioTimeout})
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 512)
	if err := c.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * ioTimeout)
	if err := c.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatalf("read after idling 4×IOTimeout: %v", err)
	}
}

// With both timeouts set, a quiet connection outlives the I/O bound and is
// closed by the idle bound.
func TestIdleTimeoutNotIOTimeoutClosesSilentPeer(t *testing.T) {
	const (
		ioTimeout   = 50 * time.Millisecond
		idleTimeout = 600 * time.Millisecond
	)
	srv, addr := startServerWith(t, ServerOptions{IOTimeout: ioTimeout, IdleTimeout: idleTimeout})
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 512)
	if err := c.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(4 * ioTimeout)
	if err := c.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatalf("read after idling 4×IOTimeout, well inside IdleTimeout: %v", err)
	}
	quiet := time.Now()
	for srv.StatsSnapshot().ActiveConns != 0 {
		if time.Since(quiet) > 5*time.Second {
			t.Fatal("silent connection was never dropped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if el := time.Since(quiet); el < idleTimeout {
		t.Fatalf("silent connection dropped after %v, before the %v idle bound", el, idleTimeout)
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
