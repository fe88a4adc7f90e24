// Server side of the wire protocol: the pipelined connection loop. One
// reader pulls tagged frames off the wire and dispatches each request to a
// worker (at most defaultMaxPipeline per connection); workers complete out
// of order, staging responses under a per-connection write mutex.
package appliance

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

// serveConn takes over a connection once handshake has answered its
// HELLO. A malformed header, an unknown op, or a redundant HELLO close the
// connection after an error frame — but only after every in-flight worker
// has responded, so the closer error frame is deterministically the last
// frame on the wire. Out-of-range ids and store errors answer an error
// frame and keep the connection (any payload was fully consumed, so the
// stream stays frame-aligned).
func (s *Server) serveConn(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) {
	var (
		wmu      sync.Mutex // serializes response staging + flush
		wg       sync.WaitGroup
		sem      = make(chan struct{}, defaultMaxPipeline)
		inflight atomic.Int64
	)
	// Drain workers before handshake's deferred conn.Close(): every
	// accepted request gets its response bytes staged and flushed.
	defer wg.Wait()
	// quiesce arms the idle bound on a connection with nothing in flight.
	// Best-effort between pipelined bursts: a worker that drains the
	// pipeline can run this just after the reader took the next request,
	// whose time in the store then counts against the idle bound.
	quiesce := func() {
		if s.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
	}
	hdr := make([]byte, headerSize)
	for {
		// Armed only while nothing is in flight: a worker slower than
		// IdleTimeout must not kill the connection under the reader's feet.
		if inflight.Load() == 0 {
			quiesce()
		}
		if _, err := io.ReadFull(br, hdr); err != nil {
			return // EOF, idle timeout, or broken connection
		}
		s.requests.Add(1)
		h, err := decodeHeader(hdr)
		if err != nil {
			// The tag field sits at a fixed offset even in a rejected
			// header; echo it so the client can fail the right op.
			tag := binary.BigEndian.Uint32(hdr[2:6])
			wg.Wait()
			s.sendErr(conn, bw, &wmu, tag, err)
			return
		}
		payload, err := s.readPayload(conn, br, h)
		if err != nil {
			return
		}
		switch h.op {
		case OpRead, OpWrite, OpStats, OpRotate, OpInvalidate, OpFlush:
			if inflight.Add(1) > 1 {
				s.pipelinedReqs.Add(1)
			}
			s.pipelineDepth.Add(1)
			sem <- struct{}{}
			wg.Add(1)
			go func(h header, payload *[]byte) {
				defer func() {
					<-sem
					s.pipelineDepth.Add(-1)
					// The reader is already blocked in ReadFull by now and
					// only checks at loop top, before this worker ran.
					if inflight.Add(-1) == 0 {
						quiesce()
					}
					wg.Done()
				}()
				s.handle(conn, bw, &wmu, h, payload)
			}(h, payload)
		default:
			// Unknown op — including a redundant OpHello and the retired
			// vector ops 6 and 7 — terminates.
			wg.Wait()
			s.sendErr(conn, bw, &wmu, h.tag, fmt.Errorf("%w: unknown op %d", ErrProtocol, h.op))
			return
		}
	}
}

// readPayload reads the rest of h's frame — an OpWrite payload, into a
// pool buffer — within IdleTimeout of its header, since sending it is the
// peer's part. It then clears the read deadline: while the request is in
// flight, the store's time is not the peer's to bound.
func (s *Server) readPayload(conn net.Conn, br *bufio.Reader, h header) (*[]byte, error) {
	if s.opts.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		defer conn.SetReadDeadline(time.Time{})
	}
	if h.op != OpWrite {
		return nil, nil
	}
	payload := poolGet(int(h.length))
	if _, err := io.ReadFull(br, *payload); err != nil {
		poolPut(payload)
		return nil, err
	}
	return payload, nil
}

// handle executes one request and stages its response. payload is
// pool-owned and released here.
func (s *Server) handle(conn net.Conn, bw *bufio.Writer, wmu *sync.Mutex, h header, payload *[]byte) {
	defer poolPut(payload)
	// Reject ids the packed block.Key cannot represent before they reach
	// the store: MakeKey treats out-of-range components as a caller bug and
	// panics, and a remote peer must not be able to take the daemon down
	// with a stray header. The frame is well-formed, so answer with an error
	// and keep the connection.
	switch h.op {
	case OpRead, OpWrite, OpInvalidate:
		if int(h.server) >= block.MaxServers || int(h.volume) >= block.MaxVolumes {
			s.sendErr(conn, bw, wmu, h.tag, fmt.Errorf("appliance: server %d / volume %d out of range", h.server, h.volume))
			return
		}
	}
	switch h.op {
	case OpRead:
		p := poolGet(int(h.length))
		if err := s.store.ReadAt(int(h.server), int(h.volume), *p, h.offset); err != nil {
			s.sendErr(conn, bw, wmu, h.tag, err)
		} else {
			s.writeFrame(conn, bw, wmu, h.tag, statusOK, *p)
		}
		poolPut(p)
	case OpWrite:
		if err := s.store.WriteAt(int(h.server), int(h.volume), *payload, h.offset); err != nil {
			s.sendErr(conn, bw, wmu, h.tag, err)
			return
		}
		s.writeFrame(conn, bw, wmu, h.tag, statusOK, nil)
	case OpStats:
		data, err := json.Marshal(s.store.Stats())
		if err != nil {
			s.sendErr(conn, bw, wmu, h.tag, err)
			return
		}
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(data)))
		s.writeFrame(conn, bw, wmu, h.tag, statusOK, lenBuf[:], data)
	case OpRotate:
		if err := s.store.RotateEpoch(); err != nil {
			s.sendErr(conn, bw, wmu, h.tag, err)
			return
		}
		s.writeFrame(conn, bw, wmu, h.tag, statusOK, nil)
	case OpInvalidate:
		dropped, err := s.store.Invalidate(int(h.server), int(h.volume), h.offset, int(h.length))
		if err != nil {
			s.sendErr(conn, bw, wmu, h.tag, err)
			return
		}
		var resp [4]byte
		binary.BigEndian.PutUint32(resp[:], uint32(dropped))
		s.writeFrame(conn, bw, wmu, h.tag, statusOK, resp[:])
	case OpFlush:
		if err := s.store.Flush(); err != nil {
			s.sendErr(conn, bw, wmu, h.tag, err)
			return
		}
		s.writeFrame(conn, bw, wmu, h.tag, statusOK, nil)
	}
}

// writeFrame stages one tagged response frame under the write mutex and
// flushes it, within IdleTimeout when one is set. A flush failure closes
// the connection (unblocking the reader); the remaining workers' flushes
// then fail the same way.
func (s *Server) writeFrame(conn net.Conn, bw *bufio.Writer, wmu *sync.Mutex, tag uint32, status byte, segs ...[]byte) {
	wmu.Lock()
	if s.opts.IdleTimeout > 0 {
		// A peer that stops reading is as dead as one that stops sending.
		conn.SetWriteDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
	var head [respHeadSize]byte
	respHead(head[:], tag, status)
	bw.Write(head[:])
	for _, seg := range segs {
		if len(seg) > 0 {
			bw.Write(seg)
		}
	}
	err := bw.Flush()
	wmu.Unlock()
	if err != nil {
		conn.Close()
	}
}

// sendErr stages a tagged error frame.
func (s *Server) sendErr(conn net.Conn, bw *bufio.Writer, wmu *sync.Mutex, tag uint32, err error) {
	s.errorFrames.Add(1)
	msg := truncateErrMsg(err.Error(), maxErrMsg)
	var lenBuf [2]byte
	binary.BigEndian.PutUint16(lenBuf[:], uint16(len(msg)))
	s.writeFrame(conn, bw, wmu, tag, statusErr, lenBuf[:], []byte(msg))
}
