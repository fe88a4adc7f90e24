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

// --- negotiation & interop -------------------------------------------------

func TestV2NegotiatedByDefault(t *testing.T) {
	srv, addr := startServerWith(t, ServerOptions{})
	c, err := Dial(addr)
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
		t.Error("round trip mismatch over v2")
	}
	c.mu.Lock()
	proto := c.proto
	c.mu.Unlock()
	if proto != ProtocolV2 {
		t.Fatalf("negotiated proto = %d, want %d", proto, ProtocolV2)
	}
	if srv.StatsSnapshot().V2Conns != 1 {
		t.Fatalf("V2Conns = %d, want 1", srv.StatsSnapshot().V2Conns)
	}
}

// A client pinned to v1 must interoperate unchanged with a v2-capable
// server: no HELLO is ever sent, and the whole exchange stays v1-framed.
func TestV1ClientAgainstV2Server(t *testing.T) {
	srv, addr := startServerWith(t, ServerOptions{})
	c, err := DialWith(addr, DialOptions{Protocol: ProtocolV1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := bytes.Repeat([]byte{0x3C}, 2048)
	if err := c.WriteAt(0, 0, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 2048)
	if err := c.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("v1 round trip mismatch")
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := srv.StatsSnapshot().V2Conns; n != 0 {
		t.Fatalf("V2Conns = %d, want 0 for a v1-pinned client", n)
	}
}

// An auto client against a v1-only server falls back transparently: the
// server answers the HELLO with an unknown-op error and hangs up, the
// client redials once and pins v1. The fallback redial must not count as
// a reconnect (the server is healthy).
func TestAutoClientFallsBackToV1OnlyServer(t *testing.T) {
	_, addr := startServerWith(t, ServerOptions{MaxProtocol: ProtocolV1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := bytes.Repeat([]byte{0x55}, 512)
	if err := c.WriteAt(0, 0, data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := c.ReadAt(0, 0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("fallback round trip mismatch")
	}
	c.mu.Lock()
	proto := c.proto
	c.mu.Unlock()
	if proto != ProtocolV1 {
		t.Fatalf("proto after fallback = %d, want %d", proto, ProtocolV1)
	}
	if n := c.Reconnects(); n != 0 {
		t.Fatalf("fallback redial counted as %d reconnects, want 0", n)
	}
}

func TestV2RequiredAgainstV1OnlyServer(t *testing.T) {
	_, addr := startServerWith(t, ServerOptions{MaxProtocol: ProtocolV1})
	c, err := DialWith(addr, DialOptions{Protocol: ProtocolV2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ReadAt(0, 0, make([]byte, 512), 0); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

// --- pipelining ------------------------------------------------------------

// Many goroutines share one v2 connection; the server completes their
// tagged requests concurrently (and, under load, out of order). Run with
// -race to exercise the tag map, the reader goroutine, and the server's
// per-connection write mutex.
func TestPipelineConcurrency(t *testing.T) {
	srv, addr := startServerWith(t, ServerOptions{})
	c, err := Dial(addr)
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
	c, err := Dial(addr)
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

// --- batching --------------------------------------------------------------

func TestBatchRoundTrip(t *testing.T) {
	srv, addr := startServerWith(t, ServerOptions{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	exts := make([]Extent, 8)
	for i := range exts {
		data := bytes.Repeat([]byte{byte(0x10 + i)}, 512*(1+i%3))
		exts[i] = Extent{Server: 0, Volume: 0, Off: uint64(i) * 8192, Data: data}
	}
	if err := c.WriteBatch(exts); err != nil {
		t.Fatal(err)
	}
	got := make([]Extent, len(exts))
	for i := range got {
		got[i] = Extent{Server: 0, Volume: 0, Off: exts[i].Off, Data: make([]byte, len(exts[i].Data))}
	}
	if err := c.ReadBatch(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i].Data, exts[i].Data) {
			t.Fatalf("extent %d mismatch", i)
		}
	}
	snap := srv.StatsSnapshot()
	if snap.VecOps != 2 {
		t.Errorf("VecOps = %d, want 2", snap.VecOps)
	}
	if snap.VecExtents != 16 {
		t.Errorf("VecExtents = %d, want 16", snap.VecExtents)
	}
}

// Against a v1-only server the batch API degrades to per-extent scalar
// ops — same data, more round trips.
func TestBatchFallsBackToScalarOnV1(t *testing.T) {
	srv, addr := startServerWith(t, ServerOptions{MaxProtocol: ProtocolV1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	exts := []Extent{
		{Server: 0, Volume: 0, Off: 0, Data: bytes.Repeat([]byte{0xD1}, 512)},
		{Server: 0, Volume: 0, Off: 4096, Data: bytes.Repeat([]byte{0xD2}, 1024)},
	}
	if err := c.WriteBatch(exts); err != nil {
		t.Fatal(err)
	}
	got := []Extent{
		{Server: 0, Volume: 0, Off: 0, Data: make([]byte, 512)},
		{Server: 0, Volume: 0, Off: 4096, Data: make([]byte, 1024)},
	}
	if err := c.ReadBatch(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i].Data, exts[i].Data) {
			t.Fatalf("extent %d mismatch after v1 fallback", i)
		}
	}
	if n := srv.StatsSnapshot().VecOps; n != 0 {
		t.Errorf("VecOps = %d on a v1 connection, want 0", n)
	}
}

func TestBatchValidation(t *testing.T) {
	c := &Client{} // validation happens before any wire traffic
	if err := c.ReadBatch(nil); !errors.Is(err, ErrProtocol) {
		t.Errorf("empty batch: err = %v, want ErrProtocol", err)
	}
	if err := c.WriteBatch([]Extent{{Server: 0, Volume: 0, Data: nil}}); !errors.Is(err, ErrProtocol) {
		t.Errorf("empty extent: err = %v, want ErrProtocol", err)
	}
	big := []Extent{
		{Server: 0, Volume: 0, Data: make([]byte, MaxIOBytes)},
		{Server: 0, Volume: 0, Off: 1 << 30, Data: make([]byte, 512)},
	}
	if err := c.WriteBatch(big); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized batch: err = %v, want ErrProtocol", err)
	}
	bad := []Extent{{Server: -1, Volume: 0, Data: make([]byte, 512)}}
	if err := c.ReadBatch(bad); err == nil {
		t.Error("negative server id accepted")
	}
}

// A malformed vector frame (bad ids in the extent table) answers an
// error frame but keeps the connection usable — the payload was fully
// consumed, so the stream is still frame-aligned.
func TestVectorErrorKeepsConnection(t *testing.T) {
	_, addr := startServerWith(t, ServerOptions{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteAt(0, 0, make([]byte, 512), 0); err != nil { // negotiate v2
		t.Fatal(err)
	}
	// Hand-craft an OpReadV whose extent table is structurally valid but
	// addresses an out-of-range volume: client-side validation would
	// reject it, so go through do2 directly.
	table := appendExtentTable(nil, []Extent{{Server: 0, Volume: 1 << 12, Off: 0, Data: make([]byte, 512)}})
	err = c.do2(headerV2{op: OpReadV, length: uint32(len(table))},
		[][]byte{table}, &pendingOp{op: OpReadV, vec: []Extent{{Data: make([]byte, 512)}}})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	// The same connection must still serve requests.
	if err := c.ReadAt(0, 0, make([]byte, 512), 0); err != nil {
		t.Fatalf("connection unusable after vector error frame: %v", err)
	}
}

// --- flush & group commit over the wire ------------------------------------

func TestClientFlushBothProtocols(t *testing.T) {
	for _, proto := range []int{ProtocolV1, ProtocolAuto} {
		_, addr := startServerWith(t, ServerOptions{})
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
	cc, err := Dial(addr)
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

// Regression: the client's stats reader allocated make([]byte, n) from
// the untrusted u32 length prefix — a corrupt server could force a ~4 GiB
// allocation. The client must reject oversized stats payloads instead.
func TestStatsPayloadBounded(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		hdr := make([]byte, headerSize)
		if _, err := io.ReadFull(br, hdr); err != nil {
			return
		}
		// statusOK + an absurd u32 stats length. A pre-fix client would
		// try to allocate and read 4 GiB; a fixed one rejects on sight.
		resp := []byte{statusOK, 0xFF, 0xFF, 0xFF, 0xFF}
		conn.Write(resp)
	}()
	c, err := DialWith(l.Addr().String(), DialOptions{Protocol: ProtocolV1, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

// The v2 stats reader is bounded the same way.
func TestStatsPayloadBoundedV2(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		hdr := make([]byte, headerSize)
		if _, err := io.ReadFull(br, hdr); err != nil {
			return // HELLO
		}
		conn.Write([]byte{statusOK, ProtocolV2})
		h2 := make([]byte, headerSizeV2)
		if _, err := io.ReadFull(br, h2); err != nil {
			return // the stats request, v2-framed
		}
		resp := make([]byte, respHeadV2+4)
		respHead(resp, binary.BigEndian.Uint32(h2[2:6]), statusOK)
		binary.BigEndian.PutUint32(resp[respHeadV2:], 0xFFFFFFFF)
		conn.Write(resp)
	}()
	c, err := DialWith(l.Addr().String(), DialOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

// Regression: serveConn's per-connection payload buffer only ever grew,
// so one 8 MiB write pinned 8 MiB per connection for its lifetime. Now
// buffers over payloadKeep go through the shared pool and are released
// after the response, so steady-state heap stays near baseline.
func TestServeConnPayloadReleased(t *testing.T) {
	_, addr := startServerWith(t, ServerOptions{})
	const conns = 4
	const big = 8 << 20
	clients := make([]*Client, conns)
	for i := range clients {
		c, err := DialWith(addr, DialOptions{Protocol: ProtocolV1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	payload := make([]byte, big)
	for _, c := range clients {
		if err := c.WriteAt(0, 0, payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Keep the connections alive with small traffic, then measure: the
	// big buffers must be poolable garbage, not per-connection residents.
	small := make([]byte, 512)
	for _, c := range clients {
		for i := 0; i < 4; i++ {
			if err := c.WriteAt(0, 0, small, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.GC() // second cycle drops sync.Pool victims
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// Pre-fix, the 4 connections retain 4×8 MiB. Post-fix the retained
	// total must come in far under one connection's big payload.
	if ms.HeapAlloc > 3*big {
		t.Fatalf("HeapAlloc = %d MiB after big writes; oversized conn buffers look retained",
			ms.HeapAlloc>>20)
	}
}
