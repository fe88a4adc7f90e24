// Package block defines the basic block-address model shared by every
// SieveStore component: 512-byte accounting blocks, 4 KiB device pages,
// packed block keys, and block I/O requests.
//
// The paper (§4) counts accesses at 512-byte granularity for accuracy but
// charges SSD occupancy at 4 KiB-page granularity; both constants live here
// so that every module agrees on them.
package block

import (
	"errors"
	"fmt"
)

const (
	// Size is the accounting granularity for block accesses, in bytes.
	// The MSR traces (and the paper's hit/allocation counts) use 512-byte
	// blocks.
	Size = 512

	// PageSize is the SSD transfer granularity used for IOPS-occupancy
	// accounting (§4 assumes 4 KiB I/Os when charging drive time).
	PageSize = 4096

	// BlocksPerPage is the number of accounting blocks per SSD page.
	BlocksPerPage = PageSize / Size
)

// Key packs a global block address — (server, volume, block number) — into
// a single comparable 64-bit value so it can be used directly as a map key
// and stored compactly in logs and sieve tables.
//
// Layout (most-significant first):
//
//	bits 58..63  server  (6 bits, up to 64 servers)
//	bits 52..57  volume  (6 bits, up to 64 volumes per server)
//	bits  0..51  block number within the volume (512-byte units)
//
// 2^52 blocks of 512 B is 2 EiB per volume, far beyond any ensemble the
// paper considers.
type Key uint64

const (
	serverBits = 6
	volumeBits = 6
	numberBits = 64 - serverBits - volumeBits

	// MaxServers is the largest server ID representable in a Key, plus one.
	MaxServers = 1 << serverBits
	// MaxVolumes is the largest volume ID representable in a Key, plus one.
	MaxVolumes = 1 << volumeBits
	// MaxBlockNumber is the largest block number representable in a Key.
	MaxBlockNumber = 1<<numberBits - 1
)

// ErrKeyRange reports a component that does not fit in the packed Key.
var ErrKeyRange = errors.New("block: key component out of range")

// MakeKey packs server, volume and block number into a Key.
// It panics if any component is out of range; callers construct keys from
// validated trace records or generator configs, so a violation is a bug.
func MakeKey(server, volume int, number uint64) Key {
	if server < 0 || server >= MaxServers ||
		volume < 0 || volume >= MaxVolumes ||
		number > MaxBlockNumber {
		panic(fmt.Sprintf("block: MakeKey(%d, %d, %d): %v", server, volume, number, ErrKeyRange))
	}
	return Key(uint64(server)<<(volumeBits+numberBits) |
		uint64(volume)<<numberBits |
		number)
}

// Server returns the server ID encoded in the key.
func (k Key) Server() int { return int(k >> (volumeBits + numberBits)) }

// Volume returns the volume ID encoded in the key.
func (k Key) Volume() int { return int(k>>numberBits) & (MaxVolumes - 1) }

// Number returns the block number within the volume.
func (k Key) Number() uint64 { return uint64(k) & MaxBlockNumber }

// Offset returns the byte offset of the block within its volume.
func (k Key) Offset() uint64 { return k.Number() * Size }

// PageHash mixes the number of the 4 KiB page the block lies in (which
// keeps the key's server and volume bits, so it is unique across the
// ensemble) through a 64-bit avalanche. It is the one placement hash:
// core.Store reduces it to a shard and sieved.Logger to a partition, so the
// BlocksPerPage blocks of a page always share both, and a partition count
// that is a multiple of the (power-of-two) shard count leaves every
// partition holding keys of exactly one shard.
func (k Key) PageHash() uint64 {
	x := uint64(k) / BlocksPerPage
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Page returns the key of the first block of the 4 KiB page k lies in; k
// is block k-k.Page() of that page. Tables keyed per page rather than per
// block (the slot table's index, a shard's in-flight table) key by it.
func (k Key) Page() Key { return k &^ (BlocksPerPage - 1) }

// String renders the key as server:volume:number for logs and tests.
func (k Key) String() string {
	return fmt.Sprintf("%d:%d:%d", k.Server(), k.Volume(), k.Number())
}

// Kind distinguishes reads from writes.
type Kind uint8

const (
	// Read is a block read request.
	Read Kind = iota
	// Write is a block write request.
	Write
)

// String returns "Read" or "Write".
func (t Kind) String() string {
	if t == Write {
		return "Write"
	}
	return "Read"
}

// Access is a single-block access: the unit the cache simulator, the sieves
// and the analysis pipeline all operate on. Multi-block trace requests are
// expanded into runs of Accesses (see trace.Expand).
type Access struct {
	// Time is nanoseconds since the trace epoch at which the access is
	// issued (for multi-block requests, interpolated per block; §4).
	Time int64
	// Key identifies the accessed block.
	Key Key
	// Kind is Read or Write.
	Kind Kind
}

// Request is a (possibly multi-block) block-device request as it appears in
// a trace: an offset/length extent on one server volume.
type Request struct {
	// Time is the issue timestamp in nanoseconds since the trace epoch.
	Time int64
	// Duration is the request service time in nanoseconds, as reported by
	// the trace; used to interpolate per-block completion times.
	Duration int64
	// Server and Volume locate the target device.
	Server int
	Volume int
	// Offset is the starting byte offset; Length the extent in bytes.
	Offset uint64
	Length uint32
	// Kind is Read or Write.
	Kind Kind
}

// FirstBlock returns the key of the first 512-byte block the request
// touches.
func (r *Request) FirstBlock() Key {
	return MakeKey(r.Server, r.Volume, r.Offset/Size)
}

// Blocks returns how many 512-byte accounting blocks the request covers,
// including partial blocks at either end. A zero-length request covers one
// block (the trace format rounds degenerate requests up; they still occupy
// the device).
func (r *Request) Blocks() int {
	if r.Length == 0 {
		return 1
	}
	first := r.Offset / Size
	last := (r.Offset + uint64(r.Length) - 1) / Size
	return int(last - first + 1)
}

// End returns the byte offset one past the last byte the request touches.
func (r *Request) End() uint64 { return r.Offset + uint64(r.Length) }
