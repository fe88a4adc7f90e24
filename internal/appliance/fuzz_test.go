package appliance

import (
	"bufio"
	"encoding/binary"
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
		h := header{op: op, server: server, volume: volume, offset: offset, length: length}
		var buf [headerSize]byte
		h.encode(buf[:])
		if buf[0] != magic {
			t.Fatalf("encode did not stamp magic: % x", buf)
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
		// Corrupting the magic must fail decode, not misparse.
		buf[0] ^= 0x01
		if _, err := decodeHeader(buf[:]); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
}

// simulateHandshake mirrors serveConn's handshake rule over the raw input:
// a valid HELLO offering version ≥ 2 gets an OK reply and hands the rest
// of the stream to the tagged-frame oracle; any other complete first frame
// gets one error reply and a close; a truncated preamble gets nothing.
func simulateHandshake(data []byte) (reply bool, ok bool, rest []byte) {
	if len(data) < headerSize {
		return false, false, nil
	}
	h, err := decodeHeader(data[:headerSize])
	if err != nil || h.op != OpHello || h.offset < ProtocolV2 {
		return true, false, nil
	}
	return true, true, data[headerSize:]
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
		h := header{op: op, server: server, volume: volume, offset: offset, length: length}
		buf := make([]byte, headerSize, headerSize+len(payload))
		h.encode(buf)
		return append(buf, payload...)
	}
	f.Add(frame(OpRead, 0, 0, 0, 512, nil))
	f.Add(frame(OpWrite, 0, 0, 0, 512, make([]byte, 512)))
	f.Add(frame(OpStats, 0, 0, 0, 0, nil))
	f.Add(frame(OpRotate, 0, 0, 0, 0, nil))
	f.Add(frame(OpInvalidate, 0, 0, 0, 1024, nil))
	f.Add(frame(OpRead, 9999, 0, 0, 512, nil))                    // server id out of range
	f.Add(frame(OpRead, 0, 0, 1<<40, 512, nil))                   // offset beyond the volume
	f.Add(frame(0x7F, 0, 0, 0, 0, nil))                           // unknown op
	f.Add([]byte{0x00, OpRead})                                   // bad magic
	f.Add(frame(OpRead, 0, 0, 0, MaxIOBytes+1, nil)[:headerSize]) // oversize length
	f.Add(frame(OpWrite, 0, 0, 0, 4096, nil))                     // write header, missing payload
	f.Add([]byte{magic})                                          // truncated header
	f.Add([]byte{})
	f.Add(append(frame(OpRead, 0, 0, 0, 512, nil), frame(OpStats, 0, 0, 0, 0, nil)...))
	f.Add(frame(OpFlush, 0, 0, 0, 0, nil))
	f.Add(frame(OpHello, 0, 0, 1, 0, nil)) // HELLO offering only v1: rejected
	f.Add(frame(OpHello, 9999, 0, 2, 0, nil))

	frame2 := func(op byte, tag uint32, server, volume uint16, offset uint64, length uint32, payload []byte) []byte {
		h := headerV2{op: op, tag: tag, server: server, volume: volume, offset: offset, length: length}
		buf := make([]byte, headerSizeV2, headerSizeV2+len(payload))
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
	f.Add(v2seed(frame2(OpRead, 6, 0, 0, 0, 512, nil)[:headerSizeV2-3]))                      // truncated v2 header
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
