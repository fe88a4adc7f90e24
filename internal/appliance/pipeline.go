// Client side of the wire protocol: the HELLO exchange and the tagged
// request pipeline (per-tag completion map + one reader goroutine per
// connection).
package appliance

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// pendingOp is one in-flight request's completion slot. The sender
// registers it under the tag, the reader goroutine fills the result and
// closes done.
type pendingOp struct {
	op   byte
	read []byte // OpRead: destination buffer, filled by the reader

	stats []byte // OpStats: raw JSON payload
	inval uint32 // OpInvalidate: dropped count

	err  error
	done chan struct{}
}

// hello sends the HELLO preamble and requires the version 2 answer. On an
// error the caller closes the connection: after an error reply the server
// hangs up, and after anything else the wire position is unknown.
func hello(br *bufio.Reader, bw *bufio.Writer) error {
	var pre [preambleSize]byte
	(&preamble{op: OpHello, offset: ProtocolV2}).encode(pre[:])
	bw.Write(pre[:]) // a failed write's error sticks, and Flush returns it
	if err := bw.Flush(); err != nil {
		return err
	}
	status, err := br.ReadByte()
	if err != nil {
		return err
	}
	switch status {
	case statusOK:
		ver, err := br.ReadByte()
		if err != nil {
			return err
		}
		if ver != ProtocolV2 { // the HELLO offered nothing else
			return fmt.Errorf("%w: server answered HELLO with protocol v%d", ErrProtocol, ver)
		}
		return nil
	case statusErr:
		msg, err := readErrMsg(br)
		switch {
		case err != nil:
			return err
		case msg == ErrServerBusy.Error():
			// The server turned this connection away at its MaxConns limit:
			// surface the sentinel (a later DialWith may find a free slot)
			// rather than an opaque RemoteError.
			return ErrServerBusy
		}
		return fmt.Errorf("%w: server rejected HELLO: %w", ErrProtocol, &RemoteError{Msg: msg})
	}
	return fmt.Errorf("%w: bad status 0x%02x", ErrProtocol, status)
}

// readErrMsg reads an error body: a u16 length, then that many bytes.
func readErrMsg(br *bufio.Reader) (string, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return "", err
	}
	msg := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	_, err := io.ReadFull(br, msg)
	return string(msg), err
}

// fail breaks the client for good on its first transport error: it closes
// the connection and completes every pending op with err. The caller must
// hold neither mu nor pendMu.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
		c.conn.Close()
	}
	c.mu.Unlock()
	c.pendMu.Lock()
	for tag, p := range c.pending {
		delete(c.pending, tag)
		p.err = err
		close(p.done)
	}
	c.pendMu.Unlock()
}

// readLoop is the connection's single response reader. Any framing
// anomaly — unknown tag, bad magic, short read — leaves the stream
// position unknown, so it breaks the client and exits.
func (c *Client) readLoop(br *bufio.Reader) {
	defer close(c.readerDone)
	for {
		p, err := c.readResponse(br)
		if err != nil {
			// Break the client first, then complete the op whose frame could
			// not be read, so that its caller's next op finds the client
			// broken.
			c.fail(err)
			if p != nil {
				p.err = err
				close(p.done)
			}
			return
		}
		close(p.done)
	}
}

// readResponse reads one tagged response frame into the pending op it
// names, reading payloads directly into the caller's buffers (no
// intermediate copy), and returns that op. A frame that names no pending
// op is an error with a nil op.
func (c *Client) readResponse(br *bufio.Reader) (*pendingOp, error) {
	var head [respHeadSize]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, err
	}
	if head[0] != respMagic {
		return nil, fmt.Errorf("%w: bad response magic 0x%02x", ErrProtocol, head[0])
	}
	tag := binary.BigEndian.Uint32(head[1:5])
	c.pendMu.Lock()
	p := c.pending[tag]
	delete(c.pending, tag)
	c.pendMu.Unlock()
	switch {
	case p == nil:
		return nil, fmt.Errorf("%w: response for unknown tag %d", ErrProtocol, tag)
	case head[5] == statusOK:
		return p, readBody(br, p)
	case head[5] == statusErr:
		msg, err := readErrMsg(br)
		p.err = &RemoteError{Msg: msg}
		if msg == ErrServerBusy.Error() {
			p.err = ErrServerBusy
		}
		return p, err
	}
	return p, fmt.Errorf("%w: bad status 0x%02x", ErrProtocol, head[5])
}

// readBody reads a statusOK response body into the pending op.
func readBody(br *bufio.Reader, p *pendingOp) error {
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

// do runs one op: it assigns a tag, registers p, writes the request frame
// (header plus payload segments, coalesced in the write buffer) and waits
// for p's completion. A failed write breaks the client, which completes p
// with every other pending op. A closed or broken client fails the op
// without sending it.
func (c *Client) do(h header, segs [][]byte, p *pendingOp) error {
	p.done = make(chan struct{})
	c.mu.Lock()
	switch {
	case c.closed:
		c.mu.Unlock()
		return net.ErrClosed
	case c.broken != nil:
		err := c.broken
		c.mu.Unlock()
		return fmt.Errorf("%w: %w", ErrBrokenConn, err)
	}
	h.tag = c.nextTag
	c.nextTag++
	c.pendMu.Lock()
	c.pending[h.tag] = p
	c.pendMu.Unlock()
	var hdr [headerSize]byte
	h.encode(hdr[:])
	c.bw.Write(hdr[:]) // a failed write's error sticks, and Flush returns it
	for _, seg := range segs {
		c.bw.Write(seg)
	}
	err := c.bw.Flush()
	c.mu.Unlock()
	if err != nil {
		c.fail(err) // outside mu, which fail takes
	}
	<-p.done
	return p.err
}
