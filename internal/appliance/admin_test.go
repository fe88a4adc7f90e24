package appliance

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/store"
)

// startDServer starts an appliance over a VariantD store with a long epoch
// (rotation only via the admin op).
func startDServer(t *testing.T) (*Client, *core.Store, *store.Mem) {
	t.Helper()
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<24)
	st, err := core.Open(be, core.Options{
		CacheBytes: 256 * block.Size,
		Variant:    core.VariantD,
		DThreshold: 3,
		Epoch:      240 * time.Hour,
		SpillDir:   t.TempDir(),
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

func TestRemoteRotateEpoch(t *testing.T) {
	client, st, be := startDServer(t)
	seed := bytes.Repeat([]byte{0xAA}, 512)
	if err := be.WriteAt(0, 0, seed, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	for i := 0; i < 5; i++ {
		if err := client.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().CachedBlocks != 0 {
		t.Fatal("nothing should be cached before rotation")
	}
	if err := client.RotateEpoch(); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epochs != 1 || stats.EpochMoves != 1 || stats.CachedBlocks != 1 {
		t.Errorf("after remote rotation: %+v", stats)
	}
	// The moved block serves hits with the right data.
	if err := client.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, seed) {
		t.Error("rotated block data wrong")
	}
}

func TestRemoteInvalidate(t *testing.T) {
	client, st, _ := startDServer(t)
	buf := make([]byte, 512)
	for i := 0; i < 5; i++ {
		if err := client.ReadAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.RotateEpoch(); err != nil {
		t.Fatal(err)
	}
	if !st.Contains(0, 0, 0) {
		t.Fatal("setup: block not cached")
	}
	dropped, err := client.Invalidate(0, 0, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if st.Contains(0, 0, 0) {
		t.Error("block still cached after remote invalidate")
	}
	// Idempotent: a second invalidate drops nothing.
	dropped, err = client.Invalidate(0, 0, 0, 512)
	if err != nil || dropped != 0 {
		t.Errorf("second invalidate: %d, %v", dropped, err)
	}
	// Unaligned invalidate surfaces as a remote error.
	if _, err := client.Invalidate(0, 0, 100, 512); err == nil {
		t.Error("unaligned invalidate accepted")
	}
}

func TestRotateOnVariantCIsNoop(t *testing.T) {
	client, _, _ := startServer(t)
	if err := client.RotateEpoch(); err != nil {
		t.Errorf("rotate on VariantC: %v", err)
	}
}

// rawHandshake opens a hand-driven connection: HELLO out, OK | 2 back.
func rawHandshake(t *testing.T, conn net.Conn) {
	t.Helper()
	var hello [preambleSize]byte
	(&preamble{op: OpHello, offset: ProtocolV2}).encode(hello[:])
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var reply [2]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil || reply != [2]byte{statusOK, ProtocolV2} {
		t.Fatalf("HELLO reply = %v, err = %v", reply, err)
	}
}

// readErrFrame consumes one tagged error frame and returns its tag and
// message.
func readErrFrame(t *testing.T, conn net.Conn) (uint32, string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var head [respHeadSize + 2]byte
	if _, err := io.ReadFull(conn, head[:]); err != nil || head[0] != respMagic || head[5] != statusErr {
		t.Fatalf("response head = %v, err = %v", head, err)
	}
	msg := make([]byte, binary.BigEndian.Uint16(head[respHeadSize:]))
	if _, err := io.ReadFull(conn, msg); err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint32(head[1:5]), string(msg)
}

// A frame with an unknown op — 6 and 7 are the retired vector ops — gets
// an error frame echoing its tag, then the server closes the connection.
func TestUnknownOpClosesConnection(t *testing.T) {
	for _, op := range []byte{99, 6, 7} {
		client, _, _ := startServer(t)
		rawHandshake(t, client.conn)
		var hdr [headerSize]byte
		(&header{op: op, tag: 7 + uint32(op)}).encode(hdr[:])
		if _, err := client.conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		tag, msg := readErrFrame(t, client.conn)
		if tag != 7+uint32(op) || !strings.Contains(msg, "unknown op") {
			t.Errorf("op %d: tag = %d, message = %q", op, tag, msg)
		}
		var b [1]byte
		client.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := client.conn.Read(b[:]); err == nil {
			t.Errorf("op %d: connection still open after protocol violation", op)
		}
	}
}

func TestBadMagicClosesConnection(t *testing.T) {
	client, _, _ := startServer(t)
	rawHandshake(t, client.conn)
	junk := make([]byte, headerSize)
	junk[0] = 0x00
	if _, err := client.conn.Write(junk); err != nil {
		t.Fatal(err)
	}
	if _, msg := readErrFrame(t, client.conn); !strings.Contains(msg, "bad magic") {
		t.Errorf("message = %q", msg)
	}
	var b [1]byte
	client.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := client.conn.Read(b[:]); err == nil {
		t.Error("connection still open after bad magic")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialWith("127.0.0.1:1", DialOptions{}); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestRemoteErrorString(t *testing.T) {
	e := &RemoteError{Msg: "boom"}
	if !strings.Contains(e.Error(), "boom") {
		t.Errorf("error = %q", e.Error())
	}
}
