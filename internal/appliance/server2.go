// Server side of the wire protocol: the pipelined connection loop. One
// reader pulls tagged frames off the wire and dispatches each request to a
// worker (bounded by ServerOptions.MaxPipeline); workers complete out of
// order, staging responses under a per-connection write mutex. Reads are
// served zero-copy from pinned cache frames where the blocks are
// resident.
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

// serveConnV2 takes over a connection once serveConn has answered its
// HELLO. A malformed header, an unknown op, or a redundant HELLO close the
// connection after an error frame — but only after every in-flight worker
// has responded, so the closer error frame is deterministically the last
// frame on the wire. Out-of-range ids and store errors answer an error
// frame and keep the connection (any payload was fully consumed, so the
// stream stays frame-aligned).
func (s *Server) serveConnV2(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) {
	maxP := s.opts.MaxPipeline
	if maxP <= 0 {
		maxP = defaultMaxPipeline
	}
	var (
		wmu      sync.Mutex // serializes response staging + flush
		wg       sync.WaitGroup
		sem      = make(chan struct{}, maxP)
		inflight atomic.Int64
	)
	// Drain workers before serveConn's deferred conn.Close(): every
	// accepted request gets its response bytes staged and flushed.
	defer wg.Wait()
	// quiesce sets the read deadline of a connection with nothing in
	// flight: the idle bound if there is one, else none — the last
	// request's I/O deadline must not fire on a peer that is merely quiet.
	// Best-effort between pipelined bursts: a worker that drains the
	// pipeline can run this just after the reader armed the next request's
	// deadline, which then waits on the idle bound instead.
	quiesce := func() {
		if s.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		} else if s.opts.IOTimeout > 0 {
			conn.SetReadDeadline(time.Time{})
		}
	}
	hdr := make([]byte, headerSizeV2)
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
		h, err := decodeHeaderV2(hdr)
		if err != nil {
			// The tag field sits at a fixed offset even in a rejected
			// header; echo it so the client can fail the right op.
			tag := binary.BigEndian.Uint32(hdr[2:6])
			wg.Wait()
			s.sendErrV2(conn, bw, &wmu, tag, err)
			return
		}
		if s.opts.IOTimeout > 0 {
			// The deadline covers this request's remaining wire I/O.
			// Pipelined responses re-arm it per arriving request.
			conn.SetDeadline(time.Now().Add(s.opts.IOTimeout))
		} else if s.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Time{})
		}
		var payload []byte
		if h.op == OpWrite {
			payload = poolGet(int(h.length))
			if _, err := io.ReadFull(br, payload); err != nil {
				poolPut(payload)
				return
			}
		}
		switch h.op {
		case OpRead, OpWrite, OpStats, OpRotate, OpInvalidate, OpFlush:
			if inflight.Add(1) > 1 {
				s.pipelinedReqs.Add(1)
			}
			s.pipelineDepth.Add(1)
			sem <- struct{}{}
			wg.Add(1)
			go func(h headerV2, payload []byte) {
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
				s.handleV2(conn, bw, &wmu, h, payload)
			}(h, payload)
		default:
			// Unknown op — including a redundant OpHello and the retired
			// vector ops 6 and 7 — terminates.
			wg.Wait()
			s.sendErrV2(conn, bw, &wmu, h.tag, fmt.Errorf("%w: unknown op %d", ErrProtocol, h.op))
			return
		}
	}
}

// handleV2 executes one request and stages its response. payload is
// pool-owned and released here.
func (s *Server) handleV2(conn net.Conn, bw *bufio.Writer, wmu *sync.Mutex, h headerV2, payload []byte) {
	defer poolPut(payload)
	// Reject ids the packed block.Key cannot represent before they reach
	// the store: MakeKey treats out-of-range components as a caller bug and
	// panics, and a remote peer must not be able to take the daemon down
	// with a stray header. The frame is well-formed, so answer with an error
	// and keep the connection.
	switch h.op {
	case OpRead, OpWrite, OpInvalidate:
		if int(h.server) >= block.MaxServers || int(h.volume) >= block.MaxVolumes {
			s.sendErrV2(conn, bw, wmu, h.tag, fmt.Errorf("appliance: server %d / volume %d out of range", h.server, h.volume))
			return
		}
	}
	switch h.op {
	case OpRead:
		// Zero-copy fast path: pin the all-hit prefix's cache frames and
		// write them to the wire directly; only the (miss) tail is read
		// into a scratch buffer. ReadPinned accounts and logs the pinned
		// blocks itself, so the two halves together count exactly like one
		// ReadAt.
		n := int(h.length)
		pr := s.store.ReadPinned(int(h.server), int(h.volume), n, h.offset)
		pinned := 0
		if pr != nil {
			pinned = pr.Bytes()
		}
		var tail []byte
		if n > pinned || n == 0 {
			tail = poolGet(n - pinned)
			if err := s.store.ReadAt(int(h.server), int(h.volume), tail, h.offset+uint64(pinned)); err != nil {
				if pr != nil {
					pr.Release()
				}
				poolPut(tail)
				s.sendErrV2(conn, bw, wmu, h.tag, err)
				return
			}
		}
		s.zeroCopyBytes.Add(int64(pinned))
		wmu.Lock()
		var head [respHeadV2]byte
		respHead(head[:], h.tag, statusOK)
		bw.Write(head[:])
		if pr != nil {
			for _, v := range pr.Views() {
				bw.Write(v)
			}
		}
		if len(tail) > 0 {
			bw.Write(tail)
		}
		err := bw.Flush()
		wmu.Unlock()
		if pr != nil {
			pr.Release()
		}
		if tail != nil {
			poolPut(tail)
		}
		if err != nil {
			conn.Close()
		}
	case OpWrite:
		if err := s.store.WriteAt(int(h.server), int(h.volume), payload, h.offset); err != nil {
			s.sendErrV2(conn, bw, wmu, h.tag, err)
			return
		}
		s.writeFrameV2(conn, bw, wmu, h.tag, statusOK, nil)
	case OpStats:
		data, err := json.Marshal(s.store.Stats())
		if err != nil {
			s.sendErrV2(conn, bw, wmu, h.tag, err)
			return
		}
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], uint32(len(data)))
		s.writeFrameV2(conn, bw, wmu, h.tag, statusOK, lenBuf[:], data)
	case OpRotate:
		if err := s.store.RotateEpoch(); err != nil {
			s.sendErrV2(conn, bw, wmu, h.tag, err)
			return
		}
		s.writeFrameV2(conn, bw, wmu, h.tag, statusOK, nil)
	case OpInvalidate:
		dropped, err := s.store.Invalidate(int(h.server), int(h.volume), h.offset, int(h.length))
		if err != nil {
			s.sendErrV2(conn, bw, wmu, h.tag, err)
			return
		}
		var resp [4]byte
		binary.BigEndian.PutUint32(resp[:], uint32(dropped))
		s.writeFrameV2(conn, bw, wmu, h.tag, statusOK, resp[:])
	case OpFlush:
		if err := s.store.Flush(); err != nil {
			s.sendErrV2(conn, bw, wmu, h.tag, err)
			return
		}
		s.writeFrameV2(conn, bw, wmu, h.tag, statusOK, nil)
	}
}

// writeFrameV2 stages one tagged response frame under the write mutex
// and flushes it. A flush failure closes the connection (unblocking the
// reader); the remaining workers' flushes then fail the same way.
func (s *Server) writeFrameV2(conn net.Conn, bw *bufio.Writer, wmu *sync.Mutex, tag uint32, status byte, segs ...[]byte) {
	wmu.Lock()
	var head [respHeadV2]byte
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

// sendErrV2 stages a tagged error frame.
func (s *Server) sendErrV2(conn net.Conn, bw *bufio.Writer, wmu *sync.Mutex, tag uint32, err error) {
	s.errorFrames.Add(1)
	msg := truncateErrMsg(err.Error(), maxErrMsg)
	var lenBuf [2]byte
	binary.BigEndian.PutUint16(lenBuf[:], uint16(len(msg)))
	s.writeFrameV2(conn, bw, wmu, tag, statusErr, lenBuf[:], []byte(msg))
}
