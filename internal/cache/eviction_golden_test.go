package cache_test

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestEvictionDigests replays one seeded stream of keyed calls through
// every replacement engine and pins the sequence of keys each engine
// evicts, as an FNV-64a digest over their little-endian values, and how
// many there were. The stream uses only what every engine has always
// offered: Touch, Insert of a resident key (a touch) and Insert of a new
// one (an eviction once full). Keys are Zipf-skewed over four times the
// capacity, so hits, second chances, promotions and ghost readmissions
// all occur.
func TestEvictionDigests(t *testing.T) {
	want := map[string]struct {
		digest    uint64
		evictions int
	}{
		"lru":    {0x3e75749ecf8ab88f, 18553},
		"sieve":  {0xb4d5b588f86076c3, 14749},
		"s3fifo": {0x7be679ff324d49f5, 15551},
		"fifo":   {0x9bd41405c41db631, 23096},
		"clock":  {0xf0ff41c29f987996, 17942},
	}
	const capacity, ops = 64, 100000
	for _, e := range engines {
		rng := rand.New(rand.NewSource(50))
		zipf := rand.NewZipf(rng, 1.1, 1, 4*capacity-1)
		s := e.new(capacity)
		h := fnv.New64a()
		evictions := 0
		for i := 0; i < ops; i++ {
			k := key(zipf.Uint64())
			if rng.Intn(4) == 0 {
				s.Touch(k)
				continue
			}
			if ev, ok := s.Insert(k); ok {
				h.Write(binary.LittleEndian.AppendUint64(nil, uint64(ev)))
				evictions++
			}
		}
		got := want[e.name]
		if h.Sum64() != got.digest || evictions != got.evictions {
			t.Errorf("%s: evicted %d keys with digest %#x, want %d with %#x",
				e.name, evictions, h.Sum64(), got.evictions, got.digest)
		}
	}
}
