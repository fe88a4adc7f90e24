// Frame layouts of the wire protocol: tagged pipelined frames. The
// handshake that precedes them is in the package comment; see DESIGN.md §11.
//
//	request:  magic 'S' | op u8 | tag u32 | server u16 | volume u16 | offset u64 | length u32 | payload
//	response: magic 'R' | tag u32 | status u8 | body
//
// The response body is per op: the read payload, stats as u32-prefixed
// JSON, the invalidate count as a u32, nothing for writes, rotate and
// flush, and for errors a u16-prefixed message. The tag lets the server
// complete requests out of order and the client keep many in flight on one
// connection.
package appliance

import (
	"encoding/binary"
	"fmt"
	"sync"
)

const (
	respMagic = 0x52 // 'R' — tagged response frames lead with this

	// Ops 6 and 7 were the scatter/gather vector ops. They are unknown ops
	// now and their numbers are not reused.

	// OpHello opens a connection. It is the one frame that uses the
	// untagged header codec: its offset field carries the client's maximum
	// supported version and the OK reply body is one byte, the version the
	// connection will speak. Anywhere but first it is an unknown op.
	OpHello = 8
	// OpFlush asks the appliance to write its dirty write-back blocks to
	// the ensemble (a no-op for write-through appliances). Concurrent
	// flushes group-commit server-side (core.Store.Flush).
	OpFlush = 9

	headerSize   = 1 + 1 + 4 + 2 + 2 + 8 + 4 // magic op tag server volume offset length
	respHeadSize = 1 + 4 + 1                 // magic tag status

	// ProtocolV2 is the version the HELLO offers and the reply confirms —
	// the only one there is (version 1, an untagged one-at-a-time framing,
	// was deleted; see the package comment).
	ProtocolV2 = 2

	// maxStatsBytes bounds the OpStats response payload a client will
	// accept: the u32 length prefix arrives from an untrusted peer, and a
	// corrupt or malicious one must not be able to force a ~4 GiB
	// allocation. Real core.Stats JSON is well under 4 KiB.
	maxStatsBytes = 4 << 20

	// defaultMaxPipeline is how many pipelined requests one connection may
	// have in flight server-side before the reader stops pulling new
	// frames (ServerOptions.MaxPipeline = 0).
	defaultMaxPipeline = 32
)

// header is the fixed-size prefix of a request frame: the HELLO preamble
// with a u32 tag after the op byte.
type header struct {
	op     byte
	tag    uint32
	server uint16
	volume uint16
	offset uint64
	length uint32
}

func (h *header) encode(buf []byte) {
	buf[0] = magic
	buf[1] = h.op
	binary.BigEndian.PutUint32(buf[2:], h.tag)
	binary.BigEndian.PutUint16(buf[6:], h.server)
	binary.BigEndian.PutUint16(buf[8:], h.volume)
	binary.BigEndian.PutUint64(buf[10:], h.offset)
	binary.BigEndian.PutUint32(buf[18:], h.length)
}

func decodeHeader(buf []byte) (header, error) {
	if buf[0] != magic {
		return header{}, fmt.Errorf("%w: bad magic 0x%02x", ErrProtocol, buf[0])
	}
	h := header{
		op:     buf[1],
		tag:    binary.BigEndian.Uint32(buf[2:]),
		server: binary.BigEndian.Uint16(buf[6:]),
		volume: binary.BigEndian.Uint16(buf[8:]),
		offset: binary.BigEndian.Uint64(buf[10:]),
		length: binary.BigEndian.Uint32(buf[18:]),
	}
	if h.length > MaxIOBytes {
		return header{}, fmt.Errorf("%w: length %d exceeds limit", ErrProtocol, h.length)
	}
	return h, nil
}

// respHead stamps a response prefix into buf.
func respHead(buf []byte, tag uint32, status byte) {
	buf[0] = respMagic
	binary.BigEndian.PutUint32(buf[1:5], tag)
	buf[5] = status
}

// payloadPool recycles large request/response payload buffers across
// connections and pipelined request handlers.
var payloadPool sync.Pool

// poolGet returns a length-n buffer backed by the payload pool.
func poolGet(n int) []byte {
	if v := payloadPool.Get(); v != nil {
		b := *v.(*[]byte)
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// poolPut recycles a buffer obtained from poolGet.
func poolPut(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	payloadPool.Put(&b)
}
