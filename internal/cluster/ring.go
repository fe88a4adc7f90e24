// Rendezvous (highest-random-weight) placement: every placement group
// ranks every ring member by a keyed hash, and the top R members are the
// group's replica set. Unlike a token ring, rendezvous hashing needs no
// virtual-node bookkeeping, gives minimal movement on membership change
// (a join steals exactly the groups it now wins; a leave re-homes only
// the departed node's groups), and yields a deterministic, ordered
// preference list — the read path walks it for fall-through.
package cluster

import "slices"

// ring is an immutable membership snapshot. Topology changes build a new
// ring (copy-on-write) so block routing never takes a lock.
type ring struct {
	version uint64
	ids     []int // member node ids, ascending
}

func newRing(ids []int) *ring {
	r := &ring{version: 1, ids: append([]int(nil), ids...)}
	slices.Sort(r.ids)
	return r
}

// with returns a new ring including id.
func (r *ring) with(id int) *ring {
	n := &ring{version: r.version + 1}
	n.ids = append(append([]int(nil), r.ids...), id)
	slices.Sort(n.ids)
	return n
}

// without returns a new ring excluding id.
func (r *ring) without(id int) *ring {
	n := &ring{version: r.version + 1}
	for _, m := range r.ids {
		if m != id {
			n.ids = append(n.ids, m)
		}
	}
	return n
}

func (r *ring) has(id int) bool { return slices.Contains(r.ids, id) }

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

// replicas appends the r highest-scoring members for group to out
// (best first) and returns it. r is clamped to the membership size.
func (r *ring) replicas(group uint64, n int, out []int) []int {
	out = out[:0]
	if n > len(r.ids) {
		n = len(r.ids)
	}
	if n <= 0 {
		return out
	}
	// Insertion into a tiny top-n list: n is 2 or 3 in practice, so this
	// beats sorting all members per group.
	scores := make([]uint64, 0, 8)
	for _, id := range r.ids {
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
