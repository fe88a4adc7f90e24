package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// File is a durable ensemble backend: each volume is a sparse file under a
// directory, so the appliance daemon's backing store survives restarts.
// Reads of never-written ranges return zeros (the files are created sparse
// and extended on demand), matching the in-memory backend's semantics.
type File struct {
	dir string

	mu       sync.Mutex
	capacity map[devKey]uint64
	files    map[devKey]*os.File
}

// NewFile opens (creating if needed) a file-backed ensemble rooted at dir.
func NewFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &File{
		dir:      dir,
		capacity: make(map[devKey]uint64),
		files:    make(map[devKey]*os.File),
	}, nil
}

func (f *File) volumePath(k devKey) string {
	return filepath.Join(f.dir, fmt.Sprintf("vol-%03d-%03d.img", k.server, k.volume))
}

// AddVolume registers a volume with the given capacity, opening (or
// creating) its backing file.
func (f *File) AddVolume(server, volume int, capacity uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := devKey{server, volume}
	if _, ok := f.files[k]; ok {
		f.capacity[k] = capacity
		return nil
	}
	file, err := os.OpenFile(f.volumePath(k), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f.files[k] = file
	f.capacity[k] = capacity
	return nil
}

func (f *File) lookup(server, volume int, n int, off uint64) (*os.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := devKey{server, volume}
	file, ok := f.files[k]
	if !ok {
		return nil, fmt.Errorf("store: unknown volume %d:%d", server, volume)
	}
	if off+uint64(n) > f.capacity[k] {
		return nil, fmt.Errorf("store: I/O [%d,%d) beyond capacity %d of volume %d:%d",
			off, off+uint64(n), f.capacity[k], server, volume)
	}
	return file, nil
}

// ReadAt implements Backend. Short reads past the file's current extent
// zero-fill (sparse semantics).
func (f *File) ReadAt(server, volume int, p []byte, off uint64) error {
	file, err := f.lookup(server, volume, len(p), off)
	if err != nil {
		return err
	}
	n, err := file.ReadAt(p, int64(off))
	if err != nil && n < len(p) {
		// Beyond EOF: unwritten sparse range reads as zeros.
		for i := n; i < len(p); i++ {
			p[i] = 0
		}
	}
	return nil
}

// WriteAt implements Backend.
func (f *File) WriteAt(server, volume int, p []byte, off uint64) error {
	file, err := f.lookup(server, volume, len(p), off)
	if err != nil {
		return err
	}
	_, err = file.WriteAt(p, int64(off))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close syncs each volume file to stable storage and closes it, returning
// the first error. A write-back store drains its dirty blocks into the
// files on shutdown; this sync is what makes that drain durable.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for k, file := range f.files {
		err := file.Sync()
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil && first == nil {
			first = fmt.Errorf("store: %w", err)
		}
		delete(f.files, k)
	}
	return first
}
