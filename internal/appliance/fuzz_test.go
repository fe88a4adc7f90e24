package appliance

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/store"
)

// FuzzFrameRoundTrip checks the header codec: any field combination must
// encode to a frame that decodes back to exactly the same header, with
// the single exception of lengths over MaxIOBytes, which decode must
// reject (never truncate or wrap).
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(OpRead), uint16(0), uint16(0), uint64(0), uint32(512))
	f.Add(byte(OpWrite), uint16(3), uint16(1), uint64(1<<40), uint32(4096))
	f.Add(byte(OpStats), uint16(0), uint16(0), uint64(0), uint32(0))
	f.Add(byte(0xFF), uint16(65535), uint16(65535), uint64(1<<63), uint32(MaxIOBytes))
	f.Add(byte(OpRead), uint16(0), uint16(0), uint64(0), uint32(MaxIOBytes+1))
	f.Fuzz(func(t *testing.T, op byte, server, volume uint16, offset uint64, length uint32) {
		h := preamble{op: op, server: server, volume: volume, offset: offset, length: length}
		var buf [preambleSize]byte
		h.encode(buf[:])
		if buf[0] != magic {
			t.Fatalf("encode did not stamp magic: % x", buf)
		}
		got, err := decodePreamble(buf[:])
		if length > MaxIOBytes {
			if err == nil {
				t.Fatalf("oversize length %d decoded: %+v", length, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode failed: %v", err)
		}
		if got != h {
			t.Fatalf("round trip changed header: %+v -> %+v", h, got)
		}
		// Corrupting the magic must fail decode, not misparse.
		buf[0] ^= 0x01
		if _, err := decodePreamble(buf[:]); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
}

// simulateHandshake mirrors handshake's handshake rule over the raw input:
// a valid HELLO offering version ≥ 2 gets an OK reply and hands the rest
// of the stream to the tagged-frame oracle; any other complete first frame
// gets one error reply and a close; a truncated preamble gets nothing.
func simulateHandshake(data []byte) (reply bool, ok bool, rest []byte) {
	if len(data) < preambleSize {
		return false, false, nil
	}
	h, err := decodePreamble(data[:preambleSize])
	if err != nil || h.op != OpHello || h.offset < ProtocolV2 {
		return true, false, nil
	}
	return true, true, data[preambleSize:]
}

// readHandshakeReply consumes the untagged reply to the first frame and
// validates its shape: OK carries the version byte, an error reply a
// length-prefixed valid-UTF-8 message.
func readHandshakeReply(t *testing.T, br *bufio.Reader, wantOK bool) {
	t.Helper()
	status, err := br.ReadByte()
	if err != nil {
		t.Fatalf("expected a handshake reply, got %v", err)
	}
	switch status {
	case statusOK:
		if !wantOK {
			t.Fatal("first frame is not a HELLO offering v2, yet the server answered OK")
		}
		if ver, err := br.ReadByte(); err != nil || ver != ProtocolV2 {
			t.Fatalf("HELLO reply version = %d, err = %v", ver, err)
		}
	case statusErr:
		if wantOK {
			t.Fatal("valid HELLO answered with an error reply")
		}
		var lenBuf [2]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			t.Fatalf("error reply length: %v", err)
		}
		msg := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
		if _, err := io.ReadFull(br, msg); err != nil {
			t.Fatalf("error reply message: %v", err)
		}
		if !utf8.Valid(msg) {
			t.Fatalf("error message is not UTF-8: %q", msg)
		}
	default:
		t.Fatalf("invalid handshake status byte %d", status)
	}
}

// FuzzServerInput throws arbitrary bytes at a live appliance server over
// TCP. The server must never panic, must answer every malformed frame
// with a clean error frame, and must keep its response stream exactly
// frame-aligned with the differential oracle — the handshake rule above,
// then the tagged-frame rules of simulateRequestsV2.
func FuzzServerInput(f *testing.F) {
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<20)
	st, err := core.Open(be, core.Options{CacheBytes: 64 * block.Size, Variant: core.VariantC})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(st)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(l) }()
	f.Cleanup(func() {
		srv.Close()
		<-done
		st.Close()
	})
	addr := l.Addr().String()

	frame := func(op byte, server, volume uint16, offset uint64, length uint32, payload []byte) []byte {
		h := preamble{op: op, server: server, volume: volume, offset: offset, length: length}
		buf := make([]byte, preambleSize, preambleSize+len(payload))
		h.encode(buf)
		return append(buf, payload...)
	}
	f.Add(frame(OpRead, 0, 0, 0, 512, nil))
	f.Add(frame(OpWrite, 0, 0, 0, 512, make([]byte, 512)))
	f.Add(frame(OpStats, 0, 0, 0, 0, nil))
	f.Add(frame(OpRotate, 0, 0, 0, 0, nil))
	f.Add(frame(OpInvalidate, 0, 0, 0, 1024, nil))
	f.Add(frame(OpRead, 9999, 0, 0, 512, nil))                      // server id out of range
	f.Add(frame(OpRead, 0, 0, 1<<40, 512, nil))                     // offset beyond the volume
	f.Add(frame(0x7F, 0, 0, 0, 0, nil))                             // unknown op
	f.Add([]byte{0x00, OpRead})                                     // bad magic
	f.Add(frame(OpRead, 0, 0, 0, MaxIOBytes+1, nil)[:preambleSize]) // oversize length
	f.Add(frame(OpWrite, 0, 0, 0, 4096, nil))                       // write header, missing payload
	f.Add([]byte{magic})                                            // truncated header
	f.Add([]byte{})
	f.Add(append(frame(OpRead, 0, 0, 0, 512, nil), frame(OpStats, 0, 0, 0, 0, nil)...))
	f.Add(frame(OpFlush, 0, 0, 0, 0, nil))
	f.Add(frame(OpHello, 0, 0, 1, 0, nil)) // HELLO offering only v1: rejected
	f.Add(frame(OpHello, 9999, 0, 2, 0, nil))

	frame2 := func(op byte, tag uint32, server, volume uint16, offset uint64, length uint32, payload []byte) []byte {
		h := header{op: op, tag: tag, server: server, volume: volume, offset: offset, length: length}
		buf := make([]byte, headerSize, headerSize+len(payload))
		h.encode(buf)
		return append(buf, payload...)
	}
	hello2 := frame(OpHello, 0, 0, ProtocolV2, 0, nil)
	// vec encodes the payload the retired vector ops 6 and 7 carried —
	// count u16, then server u16 | volume u16 | offset u64 | length u32 per
	// extent — so their seeds keep their bytes; both ops are unknown now.
	vec := func(exts ...[4]uint64) []byte {
		b := binary.BigEndian.AppendUint16(nil, uint16(len(exts)))
		for _, e := range exts {
			b = binary.BigEndian.AppendUint16(b, uint16(e[0]))
			b = binary.BigEndian.AppendUint16(b, uint16(e[1]))
			b = binary.BigEndian.AppendUint64(b, e[2])
			b = binary.BigEndian.AppendUint32(b, uint32(e[3]))
		}
		return b
	}
	v2seed := func(frames ...[]byte) []byte {
		out := append([]byte(nil), hello2...)
		for _, fr := range frames {
			out = append(out, fr...)
		}
		return out
	}
	f.Add(v2seed(frame2(OpRead, 1, 0, 0, 0, 512, nil), frame2(OpWrite, 2, 0, 0, 0, 512, make([]byte, 512))))
	f.Add(v2seed(frame2(OpStats, 7, 0, 0, 0, 0, nil), frame2(OpFlush, 8, 0, 0, 0, 0, nil)))
	f.Add(v2seed(frame2(OpRead, 3, 9999, 0, 0, 512, nil)))                                    // v2 id-range error, conn kept
	f.Add(v2seed(frame2(OpHello, 4, 0, 0, 2, 0, nil)))                                        // redundant HELLO: closer
	f.Add(v2seed(frame2(0x6E, 5, 0, 0, 0, 0, nil)))                                           // v2 unknown op: closer
	f.Add(v2seed(frame2(OpRead, 6, 0, 0, 0, 512, nil)[:headerSize-3]))                        // truncated v2 header
	f.Add(v2seed(frame2(OpWrite, 9, 0, 0, 0, 4096, nil)))                                     // v2 write, missing payload
	f.Add(v2seed(frame2(OpRead, 1, 0, 0, 0, 512, nil), frame2(OpRead, 1, 0, 0, 0, 512, nil))) // duplicate tag
	tab := vec([4]uint64{0, 0, 0, 512}, [4]uint64{0, 0, 4096, 1024})
	f.Add(v2seed(frame2(6, 11, 0, 0, 0, uint32(len(tab)), tab)))
	f.Add(v2seed(frame2(7, 12, 0, 0, 0, uint32(len(tab)+1536), append(tab, make([]byte, 1536)...))))
	f.Add(v2seed(frame2(7, 13, 0, 0, 0, uint32(len(tab)), tab)))
	badVec := vec([4]uint64{9999, 0, 0, 512})
	f.Add(v2seed(frame2(6, 14, 0, 0, 0, uint32(len(badVec)), badVec)))
	f.Add(v2seed([]byte{0x00, 0x01})) // v2 bad magic: closer

	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Skip("dial failed (server shutting down)")
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		// Write concurrently with reading: a request stream whose responses
		// overflow the TCP buffers would otherwise deadlock the single
		// thread (server blocked writing, client blocked writing). Write
		// errors are legal — the server hangs up after a terminating frame.
		writeDone := make(chan struct{})
		go func() {
			defer close(writeDone)
			conn.Write(data)
			// Half-close so the server sees EOF after the final request.
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
		}()
		// Close before joining the writer: once the oracle stops reading,
		// a blocked server response would wedge the writer until the
		// deadline; the close unblocks both sides immediately.
		defer func() { conn.Close(); <-writeDone }()
		br := bufio.NewReader(conn)
		reply, ok, rest := simulateHandshake(data)
		if reply {
			readHandshakeReply(t, br, ok)
		}
		if ok {
			verifyV2Responses(t, br, rest)
			return
		}
		// Whatever remains must be connection close, not stray bytes.
		if b, err := br.ReadByte(); err == nil {
			t.Fatalf("unexpected trailing response byte 0x%02x", b)
		}
	})
}

// FuzzFrameRoundTripV2 is FuzzFrameRoundTrip for the tagged header:
// every field combination must survive encode/decode unchanged, oversize
// lengths must be rejected, and a corrupted magic must fail decode.
func FuzzFrameRoundTripV2(f *testing.F) {
	f.Add(byte(OpRead), uint32(0), uint16(0), uint16(0), uint64(0), uint32(512))
	f.Add(byte(7), uint32(1<<31), uint16(3), uint16(1), uint64(1<<40), uint32(4096)) // retired op: the codec is op-blind
	f.Add(byte(OpHello), uint32(0xFFFFFFFF), uint16(65535), uint16(65535), uint64(1<<63), uint32(MaxIOBytes))
	f.Add(byte(6), uint32(7), uint16(0), uint16(0), uint64(0), uint32(MaxIOBytes+1))
	f.Fuzz(func(t *testing.T, op byte, tag uint32, server, volume uint16, offset uint64, length uint32) {
		h := header{op: op, tag: tag, server: server, volume: volume, offset: offset, length: length}
		var buf [headerSize]byte
		h.encode(buf[:])
		if buf[0] != magic {
			t.Fatalf("encode did not stamp magic: % x", buf)
		}
		if got := binary.BigEndian.Uint32(buf[2:6]); got != tag {
			t.Fatalf("tag field landed wrong: %d != %d", got, tag)
		}
		got, err := decodeHeader(buf[:])
		if length > MaxIOBytes {
			if err == nil {
				t.Fatalf("oversize length %d decoded: %+v", length, got)
			}
			return
		}
		if err != nil {
			t.Fatalf("decode failed: %v", err)
		}
		if got != h {
			t.Fatalf("round trip changed header: %+v -> %+v", h, got)
		}
		buf[0] ^= 0x01
		if _, err := decodeHeader(buf[:]); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
}

// fuzzExpectV2 is one predicted tagged response of the v2 oracle.
type fuzzExpectV2 struct {
	tag     uint32
	op      byte
	length  uint32 // OpRead payload bytes
	mustErr bool   // structural/id failure: the frame must be statusErr
}

// simulateRequestsV2 mirrors serveConn's framing rules. closerTag is
// non-nil when the stream terminates with an error frame (bad header,
// unknown op); the server guarantees that frame arrives after every other
// response. loose reports duplicate tags among the requests — responses
// then can't be attributed, so the driver only drains the stream.
func simulateRequestsV2(data []byte) (exps []fuzzExpectV2, closerTag *uint32, loose bool) {
	pos := 0
	seen := make(map[uint32]bool)
	for {
		if len(data)-pos < headerSize {
			return exps, nil, loose // EOF mid-header: responses then clean close
		}
		hdr := data[pos : pos+headerSize]
		pos += headerSize
		rawTag := binary.BigEndian.Uint32(hdr[2:6])
		h, err := decodeHeader(hdr)
		if err != nil {
			return exps, &rawTag, loose
		}
		if h.op == OpWrite {
			if len(data)-pos < int(h.length) {
				return exps, nil, loose // conn closes mid-payload; in-flight responses still arrive
			}
			pos += int(h.length)
		}
		switch h.op {
		case OpRead, OpWrite, OpStats, OpRotate, OpInvalidate, OpFlush:
		default:
			return exps, &rawTag, loose // unknown op (incl. redundant HELLO and the retired 6 and 7)
		}
		if seen[h.tag] {
			loose = true
		}
		seen[h.tag] = true
		exp := fuzzExpectV2{tag: h.tag, op: h.op}
		switch h.op {
		case OpRead, OpWrite, OpInvalidate:
			if int(h.server) >= block.MaxServers || int(h.volume) >= block.MaxVolumes {
				exp.mustErr = true
			} else if h.op == OpRead {
				exp.length = h.length
			}
		}
		exps = append(exps, exp)
	}
}

// verifyV2Responses matches the server's tagged responses against the v2
// oracle: every predicted response must arrive exactly once (any order),
// the closer error frame — if any — strictly last, then EOF.
func verifyV2Responses(t *testing.T, br *bufio.Reader, data []byte) {
	t.Helper()
	exps, closerTag, loose := simulateRequestsV2(data)
	if loose {
		// Duplicate tags: responses are well-formed but unattributable.
		// Drain to prove the server neither hangs nor panics.
		io.Copy(io.Discard, br)
		return
	}
	readErrBody := func() {
		var lenBuf [2]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			t.Fatalf("v2 error frame length: %v", err)
		}
		msg := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
		if _, err := io.ReadFull(br, msg); err != nil {
			t.Fatalf("v2 error frame message: %v", err)
		}
		if !utf8.Valid(msg) {
			t.Fatalf("v2 error message is not UTF-8: %q", msg)
		}
	}
	pend := make(map[uint32]fuzzExpectV2, len(exps))
	for _, e := range exps {
		pend[e.tag] = e
	}
	for len(pend) > 0 {
		var head [respHeadSize]byte
		if _, err := io.ReadFull(br, head[:]); err != nil {
			t.Fatalf("expected %d more v2 responses, got %v", len(pend), err)
		}
		if head[0] != respMagic {
			t.Fatalf("bad v2 response magic 0x%02x", head[0])
		}
		tag := binary.BigEndian.Uint32(head[1:5])
		e, ok := pend[tag]
		if !ok {
			t.Fatalf("response for unexpected tag %d", tag)
		}
		delete(pend, tag)
		switch head[5] {
		case statusOK:
			if e.mustErr {
				t.Fatalf("op %d tag %d answered OK, oracle demands an error frame", e.op, e.tag)
			}
			switch e.op {
			case OpRead:
				if _, err := io.CopyN(io.Discard, br, int64(e.length)); err != nil {
					t.Fatalf("op %d OK payload (%d bytes): %v", e.op, e.length, err)
				}
			case OpStats:
				var lenBuf [4]byte
				if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
					t.Fatalf("v2 stats length prefix: %v", err)
				}
				body := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
				if _, err := io.ReadFull(br, body); err != nil {
					t.Fatalf("v2 stats body: %v", err)
				}
				if !json.Valid(body) {
					t.Fatalf("v2 stats body is not JSON: %q", body)
				}
			case OpInvalidate:
				if _, err := io.CopyN(io.Discard, br, 4); err != nil {
					t.Fatalf("invalidate count: %v", err)
				}
			}
		case statusErr:
			readErrBody()
		default:
			t.Fatalf("op %d: invalid v2 status byte %d", e.op, head[5])
		}
	}
	if closerTag != nil {
		var head [respHeadSize]byte
		if _, err := io.ReadFull(br, head[:]); err != nil {
			t.Fatalf("expected closer error frame, got %v", err)
		}
		if head[0] != respMagic || head[5] != statusErr {
			t.Fatalf("closer frame malformed: magic 0x%02x status %d", head[0], head[5])
		}
		if tag := binary.BigEndian.Uint32(head[1:5]); tag != *closerTag {
			t.Fatalf("closer frame tag %d, want %d", tag, *closerTag)
		}
		readErrBody()
	}
	if b, err := br.ReadByte(); err == nil {
		t.Fatalf("unexpected trailing v2 response byte 0x%02x", b)
	}
}

// FuzzClientResponse feeds arbitrary bytes to the client as the server's
// half of the exchange — as the reply to its HELLO (shaken false) or, after
// a well-formed HELLO reply, as the response stream (shaken true): whatever
// a corrupt or malicious peer sends, the client must return promptly (an
// error is fine) without panicking or allocating unbounded memory from
// attacker-controlled length prefixes.
func FuzzClientResponse(f *testing.F) {
	f.Add(false, byte(0), []byte{statusOK})                         // HELLO reply cut before the version
	f.Add(false, byte(1), []byte{statusOK, 0xFF, 0xFF, 0xFF, 0xFF}) // absurd version, stray bytes
	f.Add(false, byte(2), []byte{statusErr, 0x00, 0x02, 'n', 'o'})  // HELLO rejected
	f.Add(false, byte(0), []byte{0x07})                             // invalid status
	f.Add(true, byte(0), []byte{respMagic, 0, 0, 0, 0, statusOK})   // wrong tag
	f.Add(true, byte(1), []byte{respMagic, 0, 0, 0, 1, statusOK, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(true, byte(0), []byte{0x00, 0x00, 0x00, 0x00, 0x01, statusOK}) // bad magic
	f.Add(true, byte(2), []byte{})                                       // EOF before any frame
	f.Fuzz(func(t *testing.T, shaken bool, opSel byte, data []byte) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			// A soak run back to back with FuzzServerInput's leaves every
			// ephemeral port in TIME_WAIT; that is not the client's failure.
			t.Skip("listen failed (ephemeral ports exhausted)")
		}
		defer l.Close()
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			hdr := make([]byte, preambleSize)
			if _, err := io.ReadFull(br, hdr); err != nil {
				return // HELLO
			}
			if shaken {
				if _, err := conn.Write([]byte{statusOK, ProtocolV2}); err != nil {
					return
				}
				h2 := make([]byte, headerSize)
				if _, err := io.ReadFull(br, h2); err != nil {
					return // the op
				}
			}
			conn.Write(data)
		}()
		c, err := DialWith(l.Addr().String(), DialOptions{Timeout: 2 * time.Second})
		if err != nil {
			t.Skip("dial failed")
		}
		defer c.Close()
		// Any outcome is legal; returning (bounded, panic-free) is the test.
		switch opSel % 3 {
		case 0:
			c.ReadAt(0, 0, make([]byte, 512), 0)
		case 1:
			c.Stats()
		case 2:
			c.Invalidate(0, 0, 0, 512)
		}
	})
}
