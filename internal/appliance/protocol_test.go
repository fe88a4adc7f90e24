package appliance

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// --- handshake -------------------------------------------------------------

func TestV2NegotiatedByDefault(t *testing.T) {
	srv, addr := startServerWith(t, ServerOptions{})
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := bytes.Repeat([]byte{0xA7}, 1024)
	if err := c.WriteAt(0, 0, data, 512); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1024)
	if err := c.ReadAt(0, 0, got, 512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("round trip mismatch")
	}
	// One connection, one HELLO, then the two ops as tagged frames.
	if snap := srv.StatsSnapshot(); snap.TotalConns != 1 || snap.Requests != 3 || snap.ErrorFrames != 0 {
		t.Fatalf("conns=%d requests=%d errorFrames=%d, want 1/3/0", snap.TotalConns, snap.Requests, snap.ErrorFrames)
	}
}

// Nothing but a HELLO offering v2 opens a connection: a peer speaking the
// deleted v1 framing (or garbage) gets at most one untagged error reply and
// a close, and its bytes never reach the store or the pipeline.
func TestPreHandshakeFramesRejected(t *testing.T) {
	srv, addr := startServerWith(t, ServerOptions{})
	frame := func(h preamble, payload []byte) []byte {
		buf := make([]byte, preambleSize, preambleSize+len(payload))
		h.encode(buf)
		return append(buf, payload...)
	}
	badMagic := frame(preamble{op: OpHello, offset: ProtocolV2}, nil)
	badMagic[0] = 0x00
	cases := []struct {
		name      string
		in        []byte
		wantReply bool
	}{
		{"v1 read", frame(preamble{op: OpRead, length: 512}, nil), true},
		{"v1 write with payload", frame(preamble{op: OpWrite, length: 512}, make([]byte, 512)), true},
		{"HELLO offering v1", frame(preamble{op: OpHello, offset: 1}, nil), true},
		{"bad magic", badMagic, true},
		{"truncated preamble", frame(preamble{op: OpHello, offset: ProtocolV2}, nil)[:preambleSize-5], false},
	}
	wantErrFrames := int64(0)
	for _, tc := range cases {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(tc.in); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		got, err := io.ReadAll(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: connection not closed by the server: %v", tc.name, err)
		}
		if !tc.wantReply {
			if len(got) != 0 {
				t.Errorf("%s: got % x, want a bare close", tc.name, got)
			}
			continue
		}
		wantErrFrames++
		if len(got) < 3 || got[0] != statusErr || int(binary.BigEndian.Uint16(got[1:3])) != len(got)-3 {
			t.Errorf("%s: got % x, want exactly one error reply", tc.name, got)
		}
	}
	if st := srv.store.Stats(); st.Reads+st.Writes != 0 {
		t.Errorf("store saw %d reads and %d writes from rejected peers", st.Reads, st.Writes)
	}
	snap := srv.StatsSnapshot()
	if snap.PipelineDepth != 0 || snap.ErrorFrames != wantErrFrames {
		t.Errorf("PipelineDepth = %d, ErrorFrames = %d, want 0 and %d", snap.PipelineDepth, snap.ErrorFrames, wantErrFrames)
	}
}

// The client side of the same rule: any HELLO reply but OK | 2 fails the op
// with ErrProtocol and leaves the connection broken.
func TestClientRejectsBadHelloReply(t *testing.T) {
	for name, reply := range map[string][]byte{
		"error reply":    {statusErr, 0, 4, 'n', 'o', 'p', 'e'},
		"older version":  {statusOK, 1},
		"newer version":  {statusOK, 3},
		"invalid status": {0x07, 0},
	} {
		addr := scriptServer(t, func(conn net.Conn) {
			defer conn.Close()
			io.ReadFull(conn, make([]byte, preambleSize))
			conn.Write(reply)
			io.Copy(io.Discard, conn)
		})
		c, err := DialWith(addr, DialOptions{Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ReadAt(0, 0, make([]byte, 512), 0); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: err = %v, want ErrProtocol", name, err)
		}
		if err := c.ReadAt(0, 0, make([]byte, 512), 0); !errors.Is(err, ErrBrokenConn) {
			t.Errorf("%s: second op: err = %v, want ErrBrokenConn", name, err)
		}
		c.Close()
	}
}

// --- pipelining ------------------------------------------------------------

// Many goroutines share one connection; the server completes their
// tagged requests concurrently (and, under load, out of order). Run with
// -race to exercise the tag map, the reader goroutine, and the server's
// per-connection write mutex.
func TestPipelineConcurrency(t *testing.T) {
	srv, addr := startServerWith(t, ServerOptions{})
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		workers = 16
		ops     = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, 512)
			got := make([]byte, 512)
			// Each worker owns a disjoint offset range, so reads verify
			// exactly what this worker wrote.
			base := uint64(w) * 1 << 20
			for i := 0; i < ops; i++ {
				off := base + uint64(rng.Intn(256))*512
				fill := byte(w<<4) | byte(i&0xF)
				for j := range buf {
					buf[j] = fill
				}
				if err := c.WriteAt(0, 0, buf, off); err != nil {
					errs <- fmt.Errorf("worker %d write: %w", w, err)
					return
				}
				if err := c.ReadAt(0, 0, got, off); err != nil {
					errs <- fmt.Errorf("worker %d read: %w", w, err)
					return
				}
				if got[0] != fill || got[511] != fill {
					errs <- fmt.Errorf("worker %d: read returned %#x, want %#x", w, got[0], fill)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.StatsSnapshot().PipelinedReqs == 0 {
		t.Error("no pipelined requests counted despite 16 concurrent workers")
	}
	if d := drainedDepth(srv); d != 0 {
		t.Errorf("PipelineDepth = %d after drain, want 0", d)
	}
}

// drainedDepth reads PipelineDepth once the server's workers have caught
// up: a worker sends its response before its deferred depth decrement
// runs, so the client can hold every answer a moment before the gauge
// reaches zero.
func drainedDepth(srv *Server) int64 {
	deadline := time.Now().Add(5 * time.Second)
	for {
		d := srv.StatsSnapshot().PipelineDepth
		if d == 0 || time.Now().After(deadline) {
			return d
		}
		runtime.Gosched()
	}
}

// The server must bound in-flight requests per connection at MaxPipeline.
func TestPipelineDepthBounded(t *testing.T) {
	srv, addr := startServerWith(t, ServerOptions{MaxPipeline: 2})
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 512)
			for i := 0; i < 20; i++ {
				if err := c.WriteAt(0, 0, buf, uint64(w*64+i)*512); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if d := drainedDepth(srv); d != 0 {
		t.Errorf("PipelineDepth = %d after drain, want 0", d)
	}
}

// --- flush & group commit over the wire ------------------------------------

// Both legal values of DialOptions.Protocol mean the one protocol.
func TestClientFlushBothProtocols(t *testing.T) {
	_, addr := startServerWith(t, ServerOptions{})
	if _, err := DialWith(addr, DialOptions{Protocol: 1}); err == nil {
		t.Fatal("DialWith accepted Protocol 1")
	}
	for _, proto := range []int{0, ProtocolV2} {
		c, err := DialWith(addr, DialOptions{Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WriteAt(0, 0, make([]byte, 512), 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("proto %d: Flush: %v", proto, err)
		}
		c.Close()
	}
}

// --- protocol-edge regressions ---------------------------------------------

// Regression: Client.Invalidate used to narrow its int length to the
// header's u32 unchecked, so a negative or >4 GiB length silently wrapped
// into a bogus extent on the wire.
func TestInvalidateRejectsBadLength(t *testing.T) {
	c := &Client{} // validation happens before any wire traffic
	if _, err := c.Invalidate(0, 0, 0, -1); !errors.Is(err, ErrProtocol) {
		t.Errorf("negative length: err = %v, want ErrProtocol", err)
	}
	if _, err := c.Invalidate(0, 0, 0, MaxIOBytes+1); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized length: err = %v, want ErrProtocol", err)
	}
	// In-range lengths still reach the wire (and work end to end).
	_, addr := startServerWith(t, ServerOptions{})
	cc, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.WriteAt(0, 0, make([]byte, 1024), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Invalidate(0, 0, 0, 1024); err != nil {
		t.Fatalf("valid invalidate: %v", err)
	}
}

// statsLenServer is a fake appliance that completes the handshake and
// answers the first request with an OK stats frame claiming an n-byte body.
func statsLenServer(t *testing.T, n uint32) string {
	return scriptServer(t, func(conn net.Conn) {
		defer conn.Close()
		br := bufio.NewReader(conn)
		if !serveHelloV2(br, conn) {
			return
		}
		h2 := make([]byte, headerSize)
		if _, err := io.ReadFull(br, h2); err != nil {
			return
		}
		resp := make([]byte, respHeadSize+4)
		respHead(resp, binary.BigEndian.Uint32(h2[2:6]), statusOK)
		binary.BigEndian.PutUint32(resp[respHeadSize:], n)
		conn.Write(resp)
		io.Copy(io.Discard, br)
	})
}

// Regression: the client's stats reader allocated make([]byte, n) from
// the untrusted u32 length prefix — a corrupt server could force a ~4 GiB
// allocation. The client must reject oversized stats payloads instead.
func TestStatsPayloadBounded(t *testing.T) {
	c, err := DialWith(statsLenServer(t, 0xFFFFFFFF), DialOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

// The bound is exact — one byte over maxStatsBytes is refused — and past
// it the stream cannot be resynchronized, so the connection breaks.
func TestStatsPayloadBoundedV2(t *testing.T) {
	c, err := DialWith(statsLenServer(t, maxStatsBytes+1), DialOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
	if _, err := c.Stats(); !errors.Is(err, ErrBrokenConn) {
		t.Fatalf("second call: err = %v, want ErrBrokenConn", err)
	}
}
