package main

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"

	"repro/internal/block"
)

// A block's content is a pure function of its address: the first 8 bytes
// carry its block.Key, the rest a fixed pattern. So the backend needs no
// memory, a read can be checked byte for byte without knowing what was
// written before, and a block that lands at the wrong address is caught by
// its key.
var pattern = func() (p [block.Size]byte) {
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	return p
}()

func fillBlocks(p []byte, server, volume int, off uint64) {
	key := block.MakeKey(server, volume, off/block.Size)
	for ; len(p) >= block.Size; p, key = p[block.Size:], key+1 {
		copy(p, pattern[:])
		binary.BigEndian.PutUint64(p, uint64(key))
	}
}

// badBlocks counts the blocks of p that do not hold exactly what
// fillBlocks would have produced for their address.
func badBlocks(p []byte, server, volume int, off uint64) (bad int64) {
	key := block.MakeKey(server, volume, off/block.Size)
	for ; len(p) >= block.Size; p, key = p[block.Size:], key+1 {
		if binary.BigEndian.Uint64(p) != uint64(key) || !bytes.Equal(p[8:block.Size], pattern[8:]) {
			bad++
		}
	}
	return bad
}

// synth is the benchmark-owned ensemble: reads synthesise their blocks,
// writes are verified and dropped.
type synth struct {
	reads, writes           atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	badWrites               atomic.Int64
}

func (s *synth) ReadAt(server, volume int, p []byte, off uint64) error {
	s.reads.Add(1)
	s.bytesRead.Add(int64(len(p)))
	fillBlocks(p, server, volume, off)
	return nil
}

func (s *synth) WriteAt(server, volume int, p []byte, off uint64) error {
	s.writes.Add(1)
	s.bytesWritten.Add(int64(len(p)))
	if bad := badBlocks(p, server, volume, off); bad > 0 {
		s.badWrites.Add(bad)
	}
	return nil
}
