package appliance

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
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

func TestClientWithoutReconnectStaysBroken(t *testing.T) {
	_, addr := startServerWith(t, ServerOptions{})
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.fail(errors.New("test: severed"))
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
	// The server answered c1's HELLO, so c1 holds the one slot.
	if _, err := DialWith(addr, DialOptions{}); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("over-cap dial: err = %v, want ErrServerBusy", err)
	}
	if srv.StatsSnapshot().BusyRejects == 0 {
		t.Fatal("BusyRejects did not count the rejection")
	}

	// Freeing the slot lets a new dial in once the server has seen c1 go.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := DialWith(addr, DialOptions{})
		if err == nil {
			c3.Close()
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
	// The client finds out on its next op, which fails.
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
	conn := rawDial(t, addr)
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

// patByte derives a payload byte from its absolute volume offset, so a
// response delivered into the wrong request's buffer is detectable.
func patByte(off uint64) byte { return byte(off*131 + 17) }

func fillPat(p []byte, off uint64) {
	for i := range p {
		p[i] = patByte(off + uint64(i))
	}
}

// checkPat verifies p holds off's pattern. Errorf, not Fatalf: it is
// called from worker goroutines.
func checkPat(t *testing.T, p []byte, off uint64) {
	t.Helper()
	for i := range p {
		if p[i] != patByte(off+uint64(i)) {
			t.Errorf("payload corrupt at +%d: got 0x%02x, want 0x%02x", i, p[i], patByte(off+uint64(i)))
			return
		}
	}
}

// scriptServer runs one scripted function per accepted connection, in
// accept order; extra connections are closed immediately.
func scriptServer(t *testing.T, scripts ...func(conn net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; ; i++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if i < len(scripts) {
				go scripts[i](conn)
			} else {
				conn.Close()
			}
		}
	}()
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// serveHelloV2 consumes the client's HELLO preamble and answers v2.
func serveHelloV2(br *bufio.Reader, conn net.Conn) bool {
	hdr := make([]byte, preambleSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return false
	}
	if hdr[0] != magic || hdr[1] != OpHello {
		return false
	}
	_, err := conn.Write([]byte{statusOK, ProtocolV2})
	return err == nil
}

// respondReadV2 answers one OpRead request with its offset-derived
// pattern payload.
func respondReadV2(conn net.Conn, h header) bool {
	resp := make([]byte, respHeadSize+int(h.length))
	respHead(resp[:respHeadSize], h.tag, statusOK)
	fillPat(resp[respHeadSize:], h.offset)
	_, err := conn.Write(resp)
	return err == nil
}

// readLoopRunning reports whether some goroutine's stack holds a readLoop
// frame whose receiver is c.
func readLoopRunning(c *Client) bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(fmt.Sprintf("(*Client).readLoop(%p", c)))
}

// closeOnOneP closes c with GOMAXPROCS at 1, so that c's reader, woken by
// the close, can run only while Close blocks, and reports whether the
// reader is still running when Close returns.
func closeOnOneP(t *testing.T, c *Client) (running bool) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := c.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	return readLoopRunning(c)
}

// waitReadLoop waits up to 5 s for c's reader goroutine to be running.
func waitReadLoop(t *testing.T, c *Client) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !readLoopRunning(c); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("reader goroutine not running after 5 s")
		}
	}
}

// Close returns only once the client's reader goroutine has exited, so a
// caller can leave no goroutine behind.
func TestCloseWaitsForReader(t *testing.T) {
	c, _ := dialRealServer(t)
	if err := c.WriteAt(0, 0, make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	waitReadLoop(t, c)
	if closeOnOneP(t, c) {
		t.Error("reader goroutine still running after Close returned")
	}
}

// A server answers one of three pipelined reads, then sends a response
// for a tag that no op holds, and hangs up. The answered read keeps its
// own bytes. The stranded two fail with the protocol error, not
// ErrBrokenConn, and the poison frame's body reaches neither buffer. The
// client is broken for good, and its reader has exited.
func TestUnknownTagStrandsPipelineCleanly(t *testing.T) {
	addr := scriptServer(t, func(conn net.Conn) {
		defer conn.Close()
		br := bufio.NewReader(conn)
		if !serveHelloV2(br, conn) {
			return
		}
		hdr := make([]byte, headerSize)
		for i := 0; i < 3; i++ {
			if _, err := io.ReadFull(br, hdr); err != nil {
				return
			}
			h, err := decodeHeader(hdr)
			if err != nil {
				return
			}
			if i == 0 && !respondReadV2(conn, h) {
				return
			}
		}
		poison := bytes.Repeat([]byte{0xAB}, respHeadSize+1024)
		respHead(poison, 1<<31, statusOK)
		conn.Write(poison)
	})
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() // a second Close, after closeOnOneP's, is harmless
	waitReadLoop(t, c)

	offs := []uint64{4096, 1 << 20, 3 << 20}
	bufs := make([][]byte, len(offs))
	errs := make([]error, len(offs))
	var wg sync.WaitGroup
	for i, off := range offs {
		bufs[i] = bytes.Repeat([]byte{0xEE}, 1024)
		wg.Add(1)
		go func(i int, off uint64) {
			defer wg.Done()
			errs[i] = c.ReadAt(0, 0, bufs[i], off)
		}(i, off)
	}
	wg.Wait()
	answered := 0
	for i, off := range offs {
		switch {
		case errs[i] == nil:
			answered++
			checkPat(t, bufs[i], off)
		case errors.Is(errs[i], ErrBrokenConn):
			t.Errorf("stranded read %d: err = %v, want the transport error", i, errs[i])
		case !bytes.Equal(bufs[i], bytes.Repeat([]byte{0xEE}, 1024)):
			t.Errorf("stranded read %d (err %v): buffer written", i, errs[i])
		}
	}
	if answered != 1 {
		t.Errorf("%d reads succeeded, want 1 (errs %v)", answered, errs)
	}
	if err := c.ReadAt(0, 0, make([]byte, 512), 0); !errors.Is(err, ErrBrokenConn) {
		t.Errorf("next op: err = %v, want ErrBrokenConn", err)
	}
	if closeOnOneP(t, c) {
		t.Error("reader goroutine still running after Close returned")
	}
}

// dialRealServer starts a full in-process appliance over a memory
// ensemble and dials it.
func dialRealServer(t *testing.T) (*Client, string) {
	t.Helper()
	_, addr := startServerWith(t, ServerOptions{})
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, addr
}

// flakyProxy forwards TCP to a backend but cuts every connection after a
// bounded number of server→client bytes, slicing response streams at
// arbitrary frame positions.
type flakyProxy struct {
	l       net.Listener
	backend string
	conns   atomic.Int64
}

func (p *flakyProxy) run() {
	for {
		conn, err := p.l.Accept()
		if err != nil {
			return
		}
		go p.handle(conn)
	}
}

func (p *flakyProxy) handle(conn net.Conn) {
	up, err := net.Dial("tcp", p.backend)
	if err != nil {
		conn.Close()
		return
	}
	// Vary the cut position per connection so the client doesn't wedge
	// at one stream offset forever.
	n := p.conns.Add(1)
	limit := int64(4096 + (n%7)*1531)
	go func() {
		io.Copy(up, conn)
		up.Close()
		conn.Close()
	}()
	io.CopyN(conn, up, limit)
	up.Close()
	conn.Close()
}

// TestPipelineChaosThroughFlakyProxy hammers a pipeline through a proxy
// that keeps cutting the connection mid-stream, redialing with a fresh
// DialWith whenever the shared client reports ErrBrokenConn. Every read
// that reports success must carry its own offset's bytes: a cut must never
// satisfy a request from another request's response.
func TestPipelineChaosThroughFlakyProxy(t *testing.T) {
	direct, addr := dialRealServer(t)
	// Pre-fill 256 blocks with their offset patterns via the direct
	// (unproxied) connection.
	const blocks = 256
	buf := make([]byte, block.Size)
	for i := 0; i < blocks; i++ {
		off := uint64(i) * block.Size
		fillPat(buf, off)
		if err := direct.WriteAt(0, 0, buf, off); err != nil {
			t.Fatal(err)
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxy := &flakyProxy{l: l, backend: addr}
	go proxy.run()
	t.Cleanup(func() { l.Close() })

	var mu sync.Mutex
	cur, err := DialWith(l.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { cur.Close() }()
	// client returns the shared client, first replacing it with a fresh
	// dial if it is the broken one. A failed dial keeps the broken client,
	// whose next op asks again.
	client := func(broken *Client) *Client {
		mu.Lock()
		defer mu.Unlock()
		if cur == broken {
			if c, err := DialWith(l.Addr().String(), DialOptions{}); err == nil {
				cur.Close()
				cur = c
			}
		}
		return cur
	}

	const workers = 4
	const opsPer = 40
	const attempts = 16
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, block.Size)
			for i := 0; i < opsPer; i++ {
				blk := (w*opsPer + i*13) % blocks
				off := uint64(blk) * block.Size
				var err error
				for a := 0; a < attempts; a++ {
					for j := range buf {
						buf[j] = 0xEE
					}
					c := client(nil)
					if err = c.ReadAt(0, 0, buf, off); err == nil {
						break
					}
					if errors.Is(err, ErrBrokenConn) {
						client(c)
					}
				}
				if err != nil {
					// A cut can outlast the attempts; what matters is that
					// no *successful* read is wrong.
					failed.Add(1)
					continue
				}
				checkPat(t, buf, off)
			}
		}(w)
	}
	wg.Wait()
	if f := failed.Load(); f > workers*opsPer/2 {
		t.Fatalf("%d/%d reads failed outright — proxy chaos overwhelmed the redials", f, workers*opsPer)
	}
}
