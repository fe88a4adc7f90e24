package appliance

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/sieve"
	"repro/internal/store"
)

// Regression tests for the pipeline's behavior across auto-reconnect:
// a redial during an in-flight pipeline must never deliver a
// stale-generation completion into a new request's buffer, and the
// deadline bookkeeping shared by the sender and the reader must not
// break healthy idle connections. Cluster failover makes these paths
// hot.

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

// TestPipelineReplayAfterMidPipelineDisconnect kills a connection with
// three reads in flight after completing only one of them. The two
// aborted ops must replay on the redialed connection and every buffer
// must end up with its own offset's pattern — a stale or cross-wired
// completion would plant another offset's bytes.
func TestPipelineReplayAfterMidPipelineDisconnect(t *testing.T) {
	addr := scriptServer(t,
		func(conn net.Conn) {
			defer conn.Close()
			br := bufio.NewReader(conn)
			if !serveHelloV2(br, conn) {
				return
			}
			// Read all three pipelined requests, answer only the first.
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
			// Hang up mid-pipeline: two ops are now stranded.
		},
		func(conn net.Conn) {
			defer conn.Close()
			br := bufio.NewReader(conn)
			if !serveHelloV2(br, conn) {
				return
			}
			hdr := make([]byte, headerSize)
			for {
				if _, err := io.ReadFull(br, hdr); err != nil {
					return
				}
				h, err := decodeHeader(hdr)
				if err != nil {
					return
				}
				if !respondReadV2(conn, h) {
					return
				}
			}
		},
	)
	c, err := DialWith(addr, DialOptions{
		Protocol:         ProtocolV2,
		Timeout:          5 * time.Second,
		MaxReconnects:    3,
		ReconnectBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	offs := []uint64{4096, 1 << 20, 3 << 20}
	bufs := make([][]byte, len(offs))
	var wg sync.WaitGroup
	errs := make([]error, len(offs))
	for i, off := range offs {
		bufs[i] = bytes.Repeat([]byte{0xEE}, 1024)
		wg.Add(1)
		go func(i int, off uint64) {
			defer wg.Done()
			errs[i] = c.ReadAt(0, 0, bufs[i], off)
		}(i, off)
	}
	wg.Wait()
	for i, off := range offs {
		if errs[i] != nil {
			t.Fatalf("read %d (off %d): %v", i, off, errs[i])
		}
		checkPat(t, bufs[i], off)
	}
}

// TestStaleGenerationCompletionRejected redials twice: the first
// connection strands a read, and the second connection maliciously
// completes the read's *old* tag before the replay's response could
// exist. The client must treat the stale completion as a protocol error
// — never copy its body into the replayed request's buffer — and
// recover on the next redial.
func TestStaleGenerationCompletionRejected(t *testing.T) {
	tagCh := make(chan uint32, 1)
	addr := scriptServer(t,
		func(conn net.Conn) {
			defer conn.Close()
			br := bufio.NewReader(conn)
			if !serveHelloV2(br, conn) {
				return
			}
			hdr := make([]byte, headerSize)
			if _, err := io.ReadFull(br, hdr); err != nil {
				return
			}
			h, err := decodeHeader(hdr)
			if err != nil {
				return
			}
			tagCh <- h.tag
			// Hang up without answering: the op replays after a redial.
		},
		func(conn net.Conn) {
			defer conn.Close()
			br := bufio.NewReader(conn)
			if !serveHelloV2(br, conn) {
				return
			}
			// Complete the PREVIOUS generation's tag with a poison body.
			// The client's reader must reject it (the tag belongs to no
			// current-generation op) and fail this connection without
			// touching any caller buffer.
			staleTag := <-tagCh
			resp := make([]byte, respHeadSize+1024)
			respHead(resp[:respHeadSize], staleTag, statusOK)
			for i := respHeadSize; i < len(resp); i++ {
				resp[i] = 0xAB
			}
			conn.Write(resp)
			// Linger until the client closes the connection on us.
			io.Copy(io.Discard, br)
		},
		func(conn net.Conn) {
			defer conn.Close()
			br := bufio.NewReader(conn)
			if !serveHelloV2(br, conn) {
				return
			}
			hdr := make([]byte, headerSize)
			for {
				if _, err := io.ReadFull(br, hdr); err != nil {
					return
				}
				h, err := decodeHeader(hdr)
				if err != nil {
					return
				}
				if !respondReadV2(conn, h) {
					return
				}
			}
		},
	)
	c, err := DialWith(addr, DialOptions{
		Protocol:         ProtocolV2,
		Timeout:          5 * time.Second,
		MaxReconnects:    4,
		ReconnectBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const off = 2 << 20
	buf := bytes.Repeat([]byte{0xEE}, 1024)
	if err := c.ReadAt(0, 0, buf, off); err != nil {
		t.Fatalf("read across poisoned redial: %v", err)
	}
	// checkPat is the whole assertion: the poison body is uniform 0xAB,
	// which cannot match the offset-derived pattern end to end.
	checkPat(t, buf, off)
}

// dialRealServer starts a full in-process appliance over a memory
// ensemble and dials it with the given options.
func dialRealServer(t *testing.T, opts DialOptions) (*Client, string) {
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
	srv := NewServer(st)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(l) }()
	c, err := DialWith(l.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		<-done
		st.Close()
	})
	return c, l.Addr().String()
}

// TestIdleV2ConnectionSurvivesTimeoutWindow pins the deadline hygiene of
// a healthy idle pipeline with Timeout set and reconnects disabled:
// neither the HELLO's deadline (negotiation with no op sent yet) nor a
// drained pipeline's may linger and let the idle reader break the
// connection.
func TestIdleV2ConnectionSurvivesTimeoutWindow(t *testing.T) {
	c, _ := dialRealServer(t, DialOptions{
		Timeout: 150 * time.Millisecond,
		// No reconnect budget: a reader killed by a stale deadline would
		// permanently break the client and fail the ops below.
		MaxReconnects: 0,
	})
	// Handshake without sending a single op: the reader now idles on a
	// connection whose HELLO armed a deadline.
	c.mu.Lock()
	err := c.handshakeLocked()
	c.mu.Unlock()
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	time.Sleep(450 * time.Millisecond)
	data := make([]byte, 512)
	fillPat(data, 0)
	if err := c.WriteAt(0, 0, data, 0); err != nil {
		t.Fatalf("op after idle post-HELLO window: %v", err)
	}
	// And again after the pipeline drained (the reader's idle-clear).
	time.Sleep(450 * time.Millisecond)
	buf := make([]byte, 512)
	if err := c.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatalf("op after idle drained-pipeline window: %v", err)
	}
	checkPat(t, buf, 0)
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

// TestPipelineChaosThroughFlakyProxy hammers a v2 pipeline through a
// proxy that keeps cutting the connection mid-stream. Every read that
// reports success must carry its own offset's bytes — replay after
// redial must never satisfy a request from another request's (or another
// generation's) response.
func TestPipelineChaosThroughFlakyProxy(t *testing.T) {
	direct, addr := dialRealServer(t, DialOptions{Protocol: ProtocolV2})
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

	c, err := DialWith(l.Addr().String(), DialOptions{
		Protocol:         ProtocolV2,
		Timeout:          5 * time.Second,
		MaxReconnects:    16,
		ReconnectBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 4
	const opsPer = 40
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
				for j := range buf {
					buf[j] = 0xEE
				}
				if err := c.ReadAt(0, 0, buf, off); err != nil {
					// A cut can outlast the retry budget; what matters is
					// that no *successful* read is wrong.
					failed.Add(1)
					continue
				}
				checkPat(t, buf, off)
			}
		}(w)
	}
	wg.Wait()
	if f := failed.Load(); f > workers*opsPer/2 {
		t.Fatalf("%d/%d reads failed outright — proxy chaos overwhelmed the retry envelope", f, workers*opsPer)
	}
}
