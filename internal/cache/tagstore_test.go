package cache_test

import (
	"math/rand"
	"testing"

	"repro/internal/block"
	"repro/internal/cache"
)

// The keyed calls the simulator drives, checked under every replacement
// order, the §3.1 ablation's included.

func key(n uint64) block.Key { return block.MakeKey(0, 0, n) }

// engines constructs every replacement engine by name.
var engines = []struct {
	name string
	new  func(int) *cache.Cache
}{
	{"lru", cache.New},
	{"sieve", cache.NewSieve},
	{"s3fifo", cache.NewS3FIFO},
	{"fifo", cache.NewFIFO},
	{"clock", cache.NewClock},
}

// TestDuplicateInsertSemantics pins Insert on a resident key to Touch
// under every engine: the same return, no allocation, no eviction, and
// (run against a twin instance that used Touch instead) an identical
// eviction future.
func TestDuplicateInsertSemantics(t *testing.T) {
	const capacity = 8
	for pi, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			touched, inserted := e.new(capacity), e.new(capacity)
			rng := rand.New(rand.NewSource(int64(100 + pi)))
			resident := make([]block.Key, 0, capacity)
			for i := uint64(0); i < capacity; i++ {
				touched.Insert(key(i))
				inserted.Insert(key(i))
				resident = append(resident, key(i))
			}
			next := uint64(capacity)
			for round := 0; round < 2000; round++ {
				// Hit a random resident key: one twin via Touch, the other
				// via duplicate Insert.
				r := resident[rng.Intn(len(resident))]
				if !touched.Touch(r) {
					t.Fatalf("round %d: Touch(%v) missed", round, r)
				}
				ev, wasEv := inserted.Insert(r)
				if wasEv || ev != 0 {
					t.Fatalf("round %d: duplicate Insert(%v) evicted %v", round, r, ev)
				}
				if inserted.Len() != touched.Len() {
					t.Fatalf("round %d: duplicate Insert changed Len to %d", round, inserted.Len())
				}
				// Now force an eviction in both: the twins must evict the
				// same victim, proving the duplicate Insert carried exactly
				// Touch's state change.
				next++
				evT, okT := touched.Insert(key(next))
				evI, okI := inserted.Insert(key(next))
				if okT != okI || evT != evI {
					t.Fatalf("round %d: eviction diverged: Touch-twin (%v,%v) vs Insert-twin (%v,%v)",
						round, evT, okT, evI, okI)
				}
				for i, k := range resident {
					if k == evT {
						resident[i] = key(next)
					}
				}
			}
		})
	}
}

// TestTagStoreInvariants drives the keyed calls of a cache under every
// replacement engine with the same random operation stream and checks the
// shared invariants against a shadow map.
func TestTagStoreInvariants(t *testing.T) {
	for _, e := range engines {
		s := e.new(16)
		t.Run(s.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			resident := make(map[block.Key]bool)
			for i := 0; i < 20000; i++ {
				k := key(uint64(rng.Intn(48)))
				switch rng.Intn(2) {
				case 0:
					if got := s.Touch(k); got != resident[k] {
						t.Fatalf("op %d: Touch(%v) = %v, shadow %v", i, k, got, resident[k])
					}
				case 1:
					evicted, ok := s.Insert(k)
					if ok {
						if !resident[evicted] {
							t.Fatalf("op %d: evicted non-resident %v", i, evicted)
						}
						delete(resident, evicted)
					}
					resident[k] = true
				}
				if s.Len() > 16 {
					t.Fatalf("op %d: over capacity", i)
				}
				if s.Len() != len(resident) {
					t.Fatalf("op %d: Len %d vs shadow %d", i, s.Len(), len(resident))
				}
			}
		})
	}
}
