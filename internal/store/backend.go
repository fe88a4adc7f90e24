// Package store provides storage backends for the SieveStore core: the
// in-memory ensemble backend used by the examples and tests, a
// latency-modelling wrapper that accounts HDD-like service times, and a
// fault-injecting wrapper for failure testing.
package store

import (
	"fmt"
	"sync"
)

// Backend is a byte-addressable multi-volume storage ensemble. Offsets and
// lengths are arbitrary byte ranges within a (server, volume) device; the
// SieveStore core issues 512-byte-aligned requests.
type Backend interface {
	// ReadAt fills p from the volume at the given offset.
	ReadAt(server, volume int, p []byte, off uint64) error
	// WriteAt stores p to the volume at the given offset.
	WriteAt(server, volume int, p []byte, off uint64) error
}

// extentBits sizes the sparse backend's extent granularity (64 KiB).
const extentBits = 16

const extentSize = 1 << extentBits

// devKey identifies one volume.
type devKey struct{ server, volume int }

// extKey identifies one extent of one volume.
type extKey struct {
	dev devKey
	ext uint64
}

// Mem is a sparse in-memory ensemble backend: extents materialize on first
// write, and unwritten ranges read as zeros — mirroring a thin-provisioned
// volume. It is safe for concurrent use.
type Mem struct {
	mu       sync.RWMutex
	capacity map[devKey]uint64
	extents  map[extKey][]byte
}

// NewMem returns an empty in-memory ensemble.
func NewMem() *Mem {
	return &Mem{
		capacity: make(map[devKey]uint64),
		extents:  make(map[extKey][]byte),
	}
}

// AddVolume registers a volume with the given capacity in bytes. I/O beyond
// a registered capacity fails; unregistered volumes reject all I/O.
func (m *Mem) AddVolume(server, volume int, capacity uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.capacity[devKey{server, volume}] = capacity
}

func (m *Mem) check(server, volume int, n int, off uint64) error {
	cap, ok := m.capacity[devKey{server, volume}]
	if !ok {
		return fmt.Errorf("store: unknown volume %d:%d", server, volume)
	}
	if off+uint64(n) > cap {
		return fmt.Errorf("store: I/O [%d,%d) beyond capacity %d of volume %d:%d",
			off, off+uint64(n), cap, server, volume)
	}
	return nil
}

// ReadAt implements Backend.
func (m *Mem) ReadAt(server, volume int, p []byte, off uint64) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.check(server, volume, len(p), off); err != nil {
		return err
	}
	dev := devKey{server, volume}
	for done := 0; done < len(p); {
		ext := (off + uint64(done)) >> extentBits
		within := int((off + uint64(done)) & (extentSize - 1))
		n := extentSize - within
		if rem := len(p) - done; n > rem {
			n = rem
		}
		if data, ok := m.extents[extKey{dev, ext}]; ok {
			copy(p[done:done+n], data[within:within+n])
		} else {
			for i := done; i < done+n; i++ {
				p[i] = 0
			}
		}
		done += n
	}
	return nil
}

// WriteAt implements Backend.
func (m *Mem) WriteAt(server, volume int, p []byte, off uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.check(server, volume, len(p), off); err != nil {
		return err
	}
	dev := devKey{server, volume}
	for done := 0; done < len(p); {
		ext := (off + uint64(done)) >> extentBits
		within := int((off + uint64(done)) & (extentSize - 1))
		n := extentSize - within
		if rem := len(p) - done; n > rem {
			n = rem
		}
		key := extKey{dev, ext}
		data, ok := m.extents[key]
		if !ok {
			data = make([]byte, extentSize)
			m.extents[key] = data
		}
		copy(data[within:within+n], p[done:done+n])
		done += n
	}
	return nil
}
