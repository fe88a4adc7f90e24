// Rendezvous (highest-random-weight) placement: every placement group
// ranks every ring member by a keyed hash, and the top R members are the
// group's replica set. Rendezvous hashing needs no virtual-node
// bookkeeping and yields a deterministic, ordered preference list — the
// read path walks it for fall-through.
package cluster

// ring is the fixed membership: node ids 0…n−1, the order of
// Config.Nodes.
type ring int

// mix64 is splitmix64's finalizer — a cheap, well-distributed 64-bit
// mixer (no external deps).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// score is the HRW weight of member id for a placement group.
func score(id int, group uint64) uint64 {
	return mix64(group ^ mix64(uint64(id)+0x9e3779b97f4a7c15))
}

// replicas appends the n highest-scoring members for group to out
// (best first) and returns it. n is clamped to the membership size.
func (r ring) replicas(group uint64, n int, out []int) []int {
	out = out[:0]
	if n > int(r) {
		n = int(r)
	}
	if n <= 0 {
		return out
	}
	// Insertion into a tiny top-n list: n is 2 or 3 in practice, so this
	// beats sorting all members per group.
	scores := make([]uint64, 0, 8)
	for id := 0; id < int(r); id++ {
		s := score(id, group)
		pos := len(out)
		for pos > 0 && s > scores[pos-1] {
			pos--
		}
		if pos >= n {
			continue
		}
		out = append(out, 0)
		scores = append(scores, 0)
		copy(out[pos+1:], out[pos:])
		copy(scores[pos+1:], scores[pos:])
		out[pos] = id
		scores[pos] = s
		if len(out) > n {
			out = out[:n]
			scores = scores[:n]
		}
	}
	return out
}
