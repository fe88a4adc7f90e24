// Package appliance exposes a SieveStore core.Store over TCP as a
// transparent block-caching appliance — the deployment model of the paper
// (§3.3, Figure 4): servers issue block I/O to the appliance, which serves
// popular blocks from its cache and forwards the rest to the storage
// ensemble.
//
// The wire protocol is a minimal length-prefixed binary framing (the paper
// assumes iSCSI; any block protocol works, so we use the simplest one that
// exercises the same data path). There is one protocol; wire.go has the
// frame layouts and DESIGN.md §11 the rationale.
//
// A connection opens with an 18-byte HELLO preamble whose offset field
// carries the highest version the client speaks:
//
//	hello:    magic 'S' | OpHello u8 | server u16 | volume u16 | offset u64 | length u32
//	reply:    status u8 | (status==0: version u8 = 2) (status==1: msgLen u16 | message)
//
// After an OK reply every frame is tagged, so one connection carries many
// requests in flight and the server completes them out of order:
//
//	request:  magic 'S' | op u8 | tag u32 | server u16 | volume u16 | offset u64 | length u32 | payload
//	response: magic 'R' | tag u32 | status u8 | body
//
// Any other first frame — bad magic, another op, a HELLO offering less
// than version 2 — is answered with one error reply and a close, before
// the store is touched. The same untagged error reply turns away
// connections over ServerOptions.MaxConns.
//
// The version numbers are history: version 1 was an untagged
// one-request-one-response framing. On one shared connection the tagged
// framing measured 7.1×/18.5× its throughput at 8/32 clients and within
// 3 % of it connection-per-client (EXPERIMENTS.md, "wire protocol v2"), and
// nothing spoke it any more, so its server loop, the client's round-trip
// path and the options that selected between the two were deleted. The
// HELLO keeps its shape so a future version has somewhere to negotiate.
package appliance

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/core"
)

// Protocol constants.
const (
	magic = 0x53 // 'S'

	// OpRead reads length bytes.
	OpRead = 1
	// OpWrite writes the payload.
	OpWrite = 2
	// OpStats returns the appliance's core.Stats as JSON.
	OpStats = 3
	// OpRotate forces a SieveStore-D epoch rotation (no-op for VariantC).
	OpRotate = 4
	// OpInvalidate drops cached blocks in [offset, offset+length); the
	// response payload is the dropped count as a u32.
	OpInvalidate = 5

	statusOK  = 0
	statusErr = 1

	// MaxIOBytes bounds a single request's transfer size.
	MaxIOBytes = 16 << 20

	preambleSize = 1 + 1 + 2 + 2 + 8 + 4

	// maxErrMsg bounds an error-frame message (u16 length prefix).
	maxErrMsg = 65535

	// connBufSize sizes the per-connection bufio read/write buffers: large
	// enough that a header + a 4 KiB page + the status byte coalesce into
	// one syscall each way, small enough to be cheap per connection.
	connBufSize = 32 << 10
)

// ErrProtocol reports a malformed frame.
var ErrProtocol = errors.New("appliance: protocol error")

// ErrBrokenConn reports a client connection abandoned after a transport
// error: the wire position is unknown (a frame may have been half sent or
// half read), so any further request would misparse stale bytes. Redial.
var ErrBrokenConn = errors.New("appliance: connection broken by earlier transport error")

// ErrAlreadyServing reports a second Serve call on the same Server.
var ErrAlreadyServing = errors.New("appliance: Serve already called")

// ErrServerBusy is sent (as an error frame) to connections arriving while
// the server is at its ServerOptions.MaxConns limit, and surfaced by the
// client when it recognizes the frame. The wording is part of the wire
// protocol: the client matches the message text to map the remote frame
// back to this sentinel.
var ErrServerBusy = errors.New("appliance: server at connection limit")

// preamble is the HELLO frame: the untagged fixed-size prefix a
// connection opens with.
type preamble struct {
	op     byte
	server uint16
	volume uint16
	offset uint64
	length uint32
}

func (h *preamble) encode(buf []byte) {
	buf[0] = magic
	buf[1] = h.op
	binary.BigEndian.PutUint16(buf[2:], h.server)
	binary.BigEndian.PutUint16(buf[4:], h.volume)
	binary.BigEndian.PutUint64(buf[6:], h.offset)
	binary.BigEndian.PutUint32(buf[14:], h.length)
}

func decodePreamble(buf []byte) (preamble, error) {
	if buf[0] != magic {
		return preamble{}, fmt.Errorf("%w: bad magic 0x%02x", ErrProtocol, buf[0])
	}
	h := preamble{
		op:     buf[1],
		server: binary.BigEndian.Uint16(buf[2:]),
		volume: binary.BigEndian.Uint16(buf[4:]),
		offset: binary.BigEndian.Uint64(buf[6:]),
		length: binary.BigEndian.Uint32(buf[14:]),
	}
	if h.length > MaxIOBytes {
		return preamble{}, fmt.Errorf("%w: length %d exceeds limit", ErrProtocol, h.length)
	}
	return h, nil
}

// ServerOptions hardens a Server against misbehaving peers and overload.
// The zero value imposes nothing (the historical behavior).
type ServerOptions struct {
	// IdleTimeout bounds how long a connection may sit between requests
	// before it is closed (0 = forever). A dead peer otherwise pins a
	// handler goroutine and a connection slot indefinitely.
	IdleTimeout time.Duration
	// IOTimeout bounds each request's remaining wire I/O — payload read,
	// store processing, and response flush — once its header has arrived
	// (0 = unbounded). Size it for the slowest expected backend op, not
	// just the wire.
	IOTimeout time.Duration
	// MaxConns caps concurrently served connections (0 = unlimited).
	// Connections beyond the cap receive an ErrServerBusy error frame and
	// are closed, so a well-behaved client fails fast instead of queueing.
	MaxConns int
	// MaxPipeline caps how many pipelined requests one connection may have
	// in flight server-side; past the cap the connection's reader stops
	// pulling frames until a response completes (0 = a default of 32).
	MaxPipeline int
}

// BlockStore is the storage surface a Server serves over the wire. A
// *core.Store is the canonical implementation; cluster.Client satisfies
// it too, so a Server can front a whole replicated ring as a gateway.
type BlockStore interface {
	ReadAt(server, volume int, p []byte, off uint64) error
	WriteAt(server, volume int, p []byte, off uint64) error
	// ReadPinned is never called, and every implementation declines (nil).
	// It stays only because bench/ overrides it, and leaves with
	// ROADMAP.md item 1(f).
	ReadPinned(server, volume, n int, off uint64) *core.PinnedRead
	Stats() core.Stats
	RotateEpoch() error
	Flush() error
	Invalidate(server, volume int, off uint64, length int) (int, error)
}

// Server serves the appliance protocol over a listener, backed by a
// BlockStore (usually a core.Store).
type Server struct {
	store BlockStore
	opts  ServerOptions

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup

	busyRejects int64

	totalConns  atomic.Int64
	requests    atomic.Int64
	errorFrames atomic.Int64

	pipelinedReqs atomic.Int64
	pipelineDepth atomic.Int64
}

// NewServer returns a Server around st with no limits (ServerOptions zero
// value). The caller retains ownership of st (Close does not close the
// store).
func NewServer(st BlockStore) *Server {
	return NewServerWith(st, ServerOptions{})
}

// NewServerWith returns a Server around st hardened with opts.
func NewServerWith(st BlockStore, opts ServerOptions) *Server {
	return &Server{store: st, opts: opts, conns: make(map[net.Conn]bool)}
}

// BusyRejects returns how many connections were turned away at the
// MaxConns limit.
func (s *Server) BusyRejects() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busyRejects
}

// ServerStats is a snapshot of a Server's connection and request
// counters, exported by the observability layer.
type ServerStats struct {
	ActiveConns   int   // connections currently being served
	TotalConns    int64 // connections accepted over the server's lifetime
	BusyRejects   int64 // connections turned away at the MaxConns limit
	Requests      int64 // request frames received (all ops)
	ErrorFrames   int64 // error-frame responses sent
	PipelinedReqs int64 // requests that arrived while another was already in flight on the same connection
	PipelineDepth int64 // requests in flight right now, across connections
	// ZeroCopyBytes is always 0: reads are served through ReadAt. It stays
	// only because bench/ reads it, and leaves with ROADMAP.md item 1(f).
	ZeroCopyBytes int64
}

// StatsSnapshot snapshots the server's counters.
func (s *Server) StatsSnapshot() ServerStats {
	s.mu.Lock()
	active := len(s.conns)
	busy := s.busyRejects
	s.mu.Unlock()
	return ServerStats{
		ActiveConns:   active,
		TotalConns:    s.totalConns.Load(),
		BusyRejects:   busy,
		Requests:      s.requests.Load(),
		ErrorFrames:   s.errorFrames.Load(),
		PipelinedReqs: s.pipelinedReqs.Load(),
		PipelineDepth: s.pipelineDepth.Load(),
	}
}

// sendReject is writeErr with the server's error-frame counter attached:
// the untagged reply that turns a connection away before serveConn.
func (s *Server) sendReject(bw *bufio.Writer, err error) bool {
	s.errorFrames.Add(1)
	return writeErr(bw, err)
}

// Serve accepts connections on l until Close is called. It always returns a
// non-nil error: net.ErrClosed after a clean shutdown, ErrAlreadyServing if
// the server already has a listener (a Server serves at most once).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	if s.listener != nil {
		s.mu.Unlock()
		return ErrAlreadyServing
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			// After Close the accept error is an implementation detail of
			// the listener; normalize it so callers can test for shutdown.
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return net.ErrClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
			s.busyRejects++
			s.wg.Add(1)
			s.mu.Unlock()
			// Tell the peer why before closing — off the accept loop, with a
			// short deadline, so one unresponsive peer cannot stall accepts.
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(time.Second))
				s.sendReject(bufio.NewWriterSize(conn, 64), ErrServerBusy)
				// Absorb whatever the peer already sent before closing:
				// closing with unread data risks a reset that discards the
				// busy frame before the peer reads it.
				io.Copy(io.Discard, conn)
			}()
			continue
		}
		s.conns[conn] = true
		s.totalConns.Add(1)
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handshake(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Close stops the listener and all connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// handshake answers the HELLO and hands the connection to the pipelined
// loop. The first frame must be a HELLO offering version 2 or later;
// anything else gets one untagged error reply and a close, so a peer that
// speaks another protocol never reaches the store.
func (s *Server) handshake(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, connBufSize)
	bw := bufio.NewWriterSize(conn, connBufSize)
	if s.opts.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
	var hdr [preambleSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return // EOF, idle timeout, or broken connection
	}
	if s.opts.IOTimeout > 0 {
		conn.SetDeadline(time.Now().Add(s.opts.IOTimeout))
	}
	s.requests.Add(1)
	h, err := decodePreamble(hdr[:])
	switch {
	case err != nil:
	case h.op != OpHello:
		err = fmt.Errorf("%w: connection must open with HELLO (op %d), got op %d", ErrProtocol, OpHello, h.op)
	case h.offset < ProtocolV2:
		err = fmt.Errorf("%w: HELLO offers protocol v%d, this server speaks v%d", ErrProtocol, h.offset, ProtocolV2)
	}
	if err != nil {
		s.sendReject(bw, err)
		return
	}
	bw.WriteByte(statusOK)
	bw.WriteByte(ProtocolV2)
	if bw.Flush() != nil {
		return
	}
	s.serveConn(conn, br, bw)
}

// writeErr stages an error frame and flushes it in one write.
func writeErr(bw *bufio.Writer, err error) bool {
	msg := truncateErrMsg(err.Error(), maxErrMsg)
	bw.WriteByte(statusErr)
	var lenBuf [2]byte
	binary.BigEndian.PutUint16(lenBuf[:], uint16(len(msg)))
	bw.Write(lenBuf[:])
	bw.WriteString(msg)
	return bw.Flush() == nil
}

// truncateErrMsg caps msg at max bytes without splitting a UTF-8 rune:
// naive byte truncation at the frame limit could cut mid-sequence and hand
// the client an invalid string.
func truncateErrMsg(msg string, max int) string {
	if len(msg) <= max {
		return msg
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(msg[cut]) {
		cut--
	}
	return msg[:cut]
}

// Client is a connection to an appliance Server. It is safe for concurrent
// use: concurrent calls are pipelined on the one connection as tagged
// requests, which the server may complete out of order (pipeline.go).
//
// Any transport error (failed or partial frame write/read) leaves the wire
// position unknown, so the client marks itself broken, closes the
// connection, and fails every subsequent call with ErrBrokenConn — the
// alternative is silently misparsing a stale byte of a half-read response
// as the next call's status frame. Server-reported RemoteErrors leave the
// protocol aligned and do not break the client.
type Client struct {
	addr string
	opts DialOptions

	mu         sync.Mutex
	conn       net.Conn
	br         *bufio.Reader
	bw         *bufio.Writer
	broken     error // first transport error; nil while the connection is usable
	closed     bool
	reconnects int64

	// ready is set by the first op's handshake (lazy, so DialWith stays
	// I/O-free); every later connection is handshaken by reconnectLocked
	// before it carries a request.
	ready bool
	// gen counts connections: every redial bumps it, and pipeline state
	// (pending ops, the reader goroutine) is tagged with the gen it
	// belongs to, so a stale reader's failure cannot break a fresh
	// connection.
	gen int

	// Pipeline state: pending maps in-flight tags to their completion
	// slots. pendMu guards it (never held across I/O); nextTag is guarded
	// by mu (tags are assigned on the send path).
	pendMu  sync.Mutex
	pending map[uint32]*pendingOp
	nextTag uint32
}

// DialOptions hardens a Client against a flaky wire or a restarting
// appliance. The zero value imposes nothing: no deadlines, and a broken
// connection stays broken.
type DialOptions struct {
	// Timeout bounds each round trip's wire I/O (request write through
	// response payload read; 0 = unbounded). A hit deadline breaks the
	// connection — the wire position is unknown — and, with MaxReconnects
	// set, triggers a redial.
	Timeout time.Duration
	// MaxReconnects is how many times an op whose connection broke mid-
	// flight redials and retries before giving up (0 = never: every op
	// after a transport error fails with ErrBrokenConn). Block reads and
	// writes are idempotent, so replaying one that may or may not have
	// reached the store is safe; note that a retried RotateEpoch whose
	// response (only) was lost rotates twice.
	MaxReconnects int
	// ReconnectBackoff is the initial delay between redial attempts,
	// doubling up to 1 s (default 50 ms).
	ReconnectBackoff time.Duration
	// DialTimeout bounds each dial, including redials (0 = the OS default).
	DialTimeout time.Duration
	// Protocol selects nothing: there is one wire protocol, and 0 and
	// ProtocolV2 both mean it (any other value fails DialWith). The field
	// stays only because bench/run.go sets it and bench/ changes only in a
	// benchmark issue; it leaves in the next one.
	Protocol int
}

// DialWith connects to an appliance at addr, hardened with opts. The
// dial itself performs no protocol I/O; the handshake happens on the first
// operation.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	if opts.Protocol != 0 && opts.Protocol != ProtocolV2 {
		return nil, fmt.Errorf("appliance: unknown protocol %d", opts.Protocol)
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	return &Client{
		addr: addr,
		opts: opts,
		conn: conn,
		br:   bufio.NewReaderSize(conn, connBufSize),
		bw:   bufio.NewWriterSize(conn, connBufSize),

		pending: make(map[uint32]*pendingOp),
	}, nil
}

// Reconnects returns how many times the client has successfully redialed.
func (c *Client) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	err := c.conn.Close()
	if c.broken != nil {
		// fail already closed the conn; the second close's error is noise.
		return nil
	}
	return err
}

// fail marks the connection broken and closes it (the wire position is
// unknown, so it can never be safely reused). With MaxReconnects set, the
// next send redials a fresh connection.
func (c *Client) fail(err error) error {
	if c.broken == nil {
		c.broken = err
		c.conn.Close()
	}
	return err
}

// reconnectLocked redials the appliance, replacing the broken connection.
// Caller must hold c.mu (the sleeps hold up other senders on this client,
// which have no connection to send on anyway).
func (c *Client) reconnectLocked() error {
	backoff := c.opts.ReconnectBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	for attempt := 0; attempt < c.opts.MaxReconnects; attempt++ {
		if c.closed {
			return net.ErrClosed
		}
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
		if err != nil {
			continue
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, connBufSize)
		c.bw = bufio.NewWriterSize(conn, connBufSize)
		c.broken = nil
		c.gen++
		// A failed handshake marks the fresh connection broken and counts
		// as a failed attempt.
		if c.handshakeLocked() != nil {
			continue
		}
		c.reconnects++
		return nil
	}
	return fmt.Errorf("appliance: reconnect attempts exhausted: %w", c.broken)
}

// RemoteError is a server-side failure reported over the protocol.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "appliance: remote: " + e.Msg }

// ErrIDRange reports a server or volume id that does not fit the wire
// format's uint16 fields. Without this check the cast below would wrap —
// server 65536 would silently address server 0's blocks.
var ErrIDRange = errors.New("appliance: server/volume id out of range")

// checkIDs validates ids client-side before they are narrowed to uint16.
// The appliance additionally enforces its own (tighter) block.MaxServers/
// MaxVolumes limits server-side.
func checkIDs(server, volume int) error {
	if server < 0 || server > 0xFFFF || volume < 0 || volume > 0xFFFF {
		return fmt.Errorf("%w: server=%d volume=%d", ErrIDRange, server, volume)
	}
	return nil
}

// ReadAt reads len(p) bytes from the remote volume at off.
func (c *Client) ReadAt(server, volume int, p []byte, off uint64) error {
	if len(p) > MaxIOBytes {
		return fmt.Errorf("%w: read of %d bytes exceeds limit", ErrProtocol, len(p))
	}
	if err := checkIDs(server, volume); err != nil {
		return err
	}
	return c.do(header{op: OpRead, server: uint16(server), volume: uint16(volume), offset: off, length: uint32(len(p))},
		nil, &pendingOp{op: OpRead, read: p})
}

// WriteAt writes p to the remote volume at off.
func (c *Client) WriteAt(server, volume int, p []byte, off uint64) error {
	if len(p) > MaxIOBytes {
		return fmt.Errorf("%w: write of %d bytes exceeds limit", ErrProtocol, len(p))
	}
	if err := checkIDs(server, volume); err != nil {
		return err
	}
	return c.do(header{op: OpWrite, server: uint16(server), volume: uint16(volume), offset: off, length: uint32(len(p))},
		[][]byte{p}, &pendingOp{op: OpWrite})
}

// RotateEpoch forces a SieveStore-D epoch rotation on the appliance
// (no-op for a VariantC appliance).
func (c *Client) RotateEpoch() error {
	return c.do(header{op: OpRotate}, nil, &pendingOp{op: OpRotate})
}

// Flush asks the appliance to write its dirty write-back blocks to the
// ensemble (a no-op for a write-through appliance). The store coalesces
// concurrent flushes: a Flush that arrives while a sweep is running waits
// for it and then joins the one follow-up sweep every such caller shares.
func (c *Client) Flush() error {
	return c.do(header{op: OpFlush}, nil, &pendingOp{op: OpFlush})
}

// Invalidate drops the appliance's cached blocks in [off, off+length),
// returning how many were resident. Use after modifying the backing
// ensemble outside the appliance.
func (c *Client) Invalidate(server, volume int, off uint64, length int) (int, error) {
	if err := checkIDs(server, volume); err != nil {
		return 0, err
	}
	// length narrows to the header's u32: validate like ReadAt/WriteAt do,
	// or a negative (or >4 GiB) length would silently wrap into a bogus
	// extent.
	if length <= 0 || length > MaxIOBytes {
		return 0, fmt.Errorf("%w: invalidate of %d bytes out of range", ErrProtocol, length)
	}
	p := &pendingOp{op: OpInvalidate}
	err := c.do(header{op: OpInvalidate, server: uint16(server), volume: uint16(volume), offset: off, length: uint32(length)}, nil, p)
	return int(p.inval), err
}

// Stats fetches the appliance's cache statistics.
func (c *Client) Stats() (core.Stats, error) {
	var st core.Stats
	p := &pendingOp{op: OpStats}
	if err := c.do(header{op: OpStats}, nil, p); err != nil {
		return st, err
	}
	return st, json.Unmarshal(p.stats, &st)
}
