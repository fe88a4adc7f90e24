package core

// IOVec is one extent of a scatter/gather batch handed to ReadVec or
// WriteVec: len(P) bytes of volume (Server, Volume) at byte offset Off.
type IOVec struct {
	Server, Volume int
	P              []byte
	Off            uint64
}

// ReadVec serves the extents concurrently with bounded parallelism, each
// with full ReadAt semantics (sieve admission, coalescing, degraded-mode
// bypass). After the first failure no new extents are started; the first
// error is returned and the data of extents that failed or never ran is
// undefined.
func (s *Store) ReadVec(vecs []IOVec) error { return s.eachVec(vecs, s.ReadAt) }

// WriteVec applies the extents concurrently with bounded parallelism,
// each with full WriteAt semantics. After the first failure no new
// extents are started; extents already in flight still complete, so a
// partial failure leaves a prefix-undefined mix of applied and
// unapplied extents — like independent concurrent WriteAt calls would.
func (s *Store) WriteVec(vecs []IOVec) error { return s.eachVec(vecs, s.WriteAt) }

// eachVec fans the extents out over at most transitionWorkers goroutines.
func (s *Store) eachVec(vecs []IOVec, op func(server, volume int, p []byte, off uint64) error) error {
	return forEach(len(vecs), func(i int) error {
		v := vecs[i]
		return op(v.Server, v.Volume, v.P, v.Off)
	})
}
