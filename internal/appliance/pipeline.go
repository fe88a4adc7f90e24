// Client side of the wire protocol: the lazy handshake and the tagged
// request pipeline (per-tag completion map + one reader goroutine per
// connection).
package appliance

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// pendingOp is one in-flight request's completion slot. The sender
// registers it under the tag, the reader goroutine fills the result and
// closes done. transport marks failures that broke the connection (the
// retry envelope replays those); server error frames are not transport
// failures.
type pendingOp struct {
	op   byte
	read []byte // OpRead: destination buffer, filled by the reader

	stats []byte // OpStats: raw JSON payload
	inval uint32 // OpInvalidate: dropped count

	gen       int
	err       error
	transport bool
	done      chan struct{}
}

func (p *pendingOp) reset() {
	p.err = nil
	p.transport = false
	p.done = make(chan struct{})
}

// handshakeLocked opens the current connection: it sends the HELLO
// preamble, requires the version 2 answer, and starts the connection's
// response reader. Any failure leaves the connection broken — after an
// error reply the server hangs up, and after anything else the wire
// position is unknown. Caller must hold c.mu.
func (c *Client) handshakeLocked() error {
	if c.opts.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	}
	var hello [preambleSize]byte
	(&preamble{op: OpHello, offset: ProtocolV2}).encode(hello[:])
	if _, err := c.bw.Write(hello[:]); err != nil {
		return c.fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(err)
	}
	status, err := c.br.ReadByte()
	if err != nil {
		return c.fail(err)
	}
	switch status {
	case statusOK:
		ver, err := c.br.ReadByte()
		if err != nil {
			return c.fail(err)
		}
		if ver != ProtocolV2 { // the HELLO offered nothing else
			return c.fail(fmt.Errorf("%w: server answered HELLO with protocol v%d", ErrProtocol, ver))
		}
	case statusErr:
		var lenBuf [2]byte
		if _, err := io.ReadFull(c.br, lenBuf[:]); err != nil {
			return c.fail(err)
		}
		msg := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
		if _, err := io.ReadFull(c.br, msg); err != nil {
			return c.fail(err)
		}
		if string(msg) == ErrServerBusy.Error() {
			// The server turned this connection away at its MaxConns limit:
			// surface the sentinel (a later redial may find a free slot)
			// rather than an opaque RemoteError.
			return c.fail(ErrServerBusy)
		}
		return c.fail(fmt.Errorf("%w: server rejected HELLO: %w", ErrProtocol, &RemoteError{Msg: string(msg)}))
	default:
		return c.fail(fmt.Errorf("%w: bad status 0x%02x", ErrProtocol, status))
	}
	// The HELLO armed a deadline that would otherwise linger: with no op in
	// flight yet on this generation (we hold c.mu, nothing has been sent),
	// an idle reader must not time out waiting for the first response.
	// send re-arms the deadline per request.
	if c.opts.Timeout > 0 {
		c.conn.SetDeadline(time.Time{})
	}
	c.ready = true
	go c.readLoop(c.conn, c.br, c.gen)
	return nil
}

// failConn marks the given connection generation broken (if it is still
// current) and aborts its pending ops with a transport failure.
func (c *Client) failConn(gen int, err error) {
	c.mu.Lock()
	if gen == c.gen && c.broken == nil {
		c.broken = err
		c.conn.Close()
	}
	c.mu.Unlock()
	c.abortPending(gen, err)
}

// abortPending completes every pending op of the given generation with a
// transport failure.
func (c *Client) abortPending(gen int, err error) {
	c.pendMu.Lock()
	for tag, p := range c.pending {
		if p.gen != gen {
			continue
		}
		delete(c.pending, tag)
		p.err = err
		p.transport = true
		close(p.done)
	}
	c.pendMu.Unlock()
}

// readLoop is the single response reader of one connection: it
// demultiplexes tagged response frames into their pending slots, reading
// payloads directly into the caller's buffers (no intermediate copy).
// Any framing anomaly — unknown tag, bad magic, short read — leaves the
// stream position unknown, so it breaks the connection.
func (c *Client) readLoop(conn net.Conn, br *bufio.Reader, gen int) {
	for {
		var head [respHeadSize]byte
		if _, err := io.ReadFull(br, head[:]); err != nil {
			c.failConn(gen, err)
			return
		}
		if head[0] != respMagic {
			c.failConn(gen, fmt.Errorf("%w: bad response magic 0x%02x", ErrProtocol, head[0]))
			return
		}
		tag := binary.BigEndian.Uint32(head[1:5])
		status := head[5]
		c.pendMu.Lock()
		p := c.pending[tag]
		if p != nil && p.gen == gen {
			delete(c.pending, tag)
		} else {
			p = nil
		}
		c.pendMu.Unlock()
		if p == nil {
			c.failConn(gen, fmt.Errorf("%w: response for unknown tag %d", ErrProtocol, tag))
			return
		}
		var rerr error
		switch status {
		case statusOK:
			rerr = c.readBody(br, p)
		case statusErr:
			var lenBuf [2]byte
			if _, rerr = io.ReadFull(br, lenBuf[:]); rerr == nil {
				msg := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
				if _, rerr = io.ReadFull(br, msg); rerr == nil {
					if string(msg) == ErrServerBusy.Error() {
						p.err = ErrServerBusy
					} else {
						p.err = &RemoteError{Msg: string(msg)}
					}
				}
			}
		default:
			rerr = fmt.Errorf("%w: bad status 0x%02x", ErrProtocol, status)
		}
		if rerr != nil {
			// The frame body couldn't be read: break the connection, then
			// complete this op as a transport failure too — in that order,
			// so its caller's next op already finds the connection broken.
			p.err = rerr
			p.transport = true
			c.failConn(gen, rerr)
			close(p.done)
			return
		}
		// When the pipeline drains, clear the read deadline armed by the
		// send path so the idle reader doesn't time out between bursts.
		// The clear must happen INSIDE the pendMu critical section that
		// observes the empty map: send registers under pendMu before
		// arming its deadline, so clearing outside the lock could wipe a
		// deadline a concurrent sender just armed and leave that op
		// waiting forever on a hung server.
		if c.opts.Timeout > 0 {
			c.pendMu.Lock()
			if len(c.pending) == 0 {
				conn.SetReadDeadline(time.Time{})
			}
			c.pendMu.Unlock()
		}
		close(p.done)
	}
}

// readBody reads a statusOK response body into the pending op.
func (c *Client) readBody(br *bufio.Reader, p *pendingOp) error {
	switch p.op {
	case OpRead:
		_, err := io.ReadFull(br, p.read)
		return err
	case OpStats:
		var lenBuf [4]byte
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return err
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n > maxStatsBytes {
			return fmt.Errorf("%w: %d-byte stats payload exceeds limit", ErrProtocol, n)
		}
		p.stats = make([]byte, n)
		_, err := io.ReadFull(br, p.stats)
		return err
	case OpInvalidate:
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return err
		}
		p.inval = binary.BigEndian.Uint32(b[:])
		return nil
	default: // OpWrite, OpRotate, OpFlush: empty body
		return nil
	}
}

// send assigns a tag, registers p, and writes one request frame (header plus
// payload segments, coalesced in the write buffer). A write failure
// breaks the connection and aborts the pipeline — including p, whose
// done channel is then already closed. Entry errors (closed client,
// broken connection without retry budget, exhausted reconnects, a failed
// first handshake) are returned without registering p.
func (c *Client) send(h header, segs [][]byte, p *pendingOp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return net.ErrClosed
	}
	switch {
	case c.broken != nil:
		if c.opts.MaxReconnects <= 0 {
			return fmt.Errorf("%w: %w", ErrBrokenConn, c.broken)
		}
		if rerr := c.reconnectLocked(); rerr != nil {
			return fmt.Errorf("%w: %w", ErrBrokenConn, rerr)
		}
	case !c.ready:
		if err := c.handshakeLocked(); err != nil {
			return err
		}
	}
	h.tag = c.nextTag
	c.nextTag++
	p.gen = c.gen
	c.pendMu.Lock()
	c.pending[h.tag] = p
	c.pendMu.Unlock()
	if c.opts.Timeout > 0 {
		// Covers this request's write and — because the reader clears it
		// only when the pipeline drains — the whole in-flight window.
		c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	}
	var hdr [headerSize]byte
	h.encode(hdr[:])
	_, err := c.bw.Write(hdr[:])
	for _, seg := range segs {
		if err != nil {
			break
		}
		if len(seg) > 0 {
			_, err = c.bw.Write(seg)
		}
	}
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		// Mark broken under mu, then abort the generation's pipeline
		// (pendMu only). p is among the aborted: the caller's wait returns
		// immediately with the transport failure.
		gen := c.gen
		if c.broken == nil {
			c.broken = err
			c.conn.Close()
		}
		c.abortPending(gen, err)
	}
	return nil
}

// do runs one pipelined op to completion inside the redial-and-replay
// envelope: transport failures are retried up to MaxReconnects times,
// server error frames are not.
func (c *Client) do(h header, segs [][]byte, p *pendingOp) error {
	for attempt := 0; ; attempt++ {
		p.reset()
		if err := c.send(h, segs, p); err != nil {
			return err
		}
		<-p.done
		if p.err == nil || !p.transport || attempt >= c.opts.MaxReconnects {
			return p.err
		}
		// Transport failure with retry budget left: the next send finds
		// the connection broken, redials (handshaking again), and replays.
	}
}
