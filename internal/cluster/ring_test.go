package cluster

import (
	"slices"
	"testing"
)

func ringOf(ids ...int) *ring { return newRing(ids) }

func TestRingReplicasDeterministicAndDistinct(t *testing.T) {
	r := ringOf(0, 1, 2, 3, 4)
	var scratch []int
	for g := uint64(0); g < 2000; g++ {
		first := append([]int(nil), r.replicas(g, 3, scratch)...)
		if len(first) != 3 {
			t.Fatalf("group %d: got %d replicas, want 3", g, len(first))
		}
		seen := map[int]bool{}
		for _, id := range first {
			if !r.has(id) {
				t.Fatalf("group %d: replica %d not a member", g, id)
			}
			if seen[id] {
				t.Fatalf("group %d: duplicate replica %d", g, id)
			}
			seen[id] = true
		}
		again := r.replicas(g, 3, scratch)
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("group %d: non-deterministic replica list %v vs %v", g, first, again)
			}
		}
	}
}

func TestRingClampsToMembership(t *testing.T) {
	r := ringOf(3, 7)
	got := r.replicas(42, 5, nil)
	if len(got) != 2 {
		t.Fatalf("want 2 replicas from a 2-node ring, got %v", got)
	}
}

func TestRingDistributionRoughlyUniform(t *testing.T) {
	r := ringOf(0, 1, 2, 3, 4)
	const groups = 20000
	primary := map[int]int{}
	var scratch []int
	for g := uint64(0); g < groups; g++ {
		scratch = r.replicas(g, 1, scratch)
		primary[scratch[0]]++
	}
	mean := groups / len(r.ids)
	for id, n := range primary {
		if n < mean*7/10 || n > mean*13/10 {
			t.Errorf("node %d owns %d of %d groups (mean %d): skewed placement", id, n, groups, mean)
		}
	}
}

// A join must only move groups onto the new node: every surviving owner
// was already an owner before.
func TestRingMinimalMovementOnJoin(t *testing.T) {
	old := ringOf(0, 1, 2, 3)
	grown := old.with(4)
	const groups = 5000
	changed := 0
	var a, b []int
	for g := uint64(0); g < groups; g++ {
		a = old.replicas(g, 2, a)
		b = grown.replicas(g, 2, b)
		moved := false
		for _, id := range b {
			if id == 4 {
				moved = true
				continue
			}
			if !slices.Contains(a, id) {
				t.Fatalf("group %d: owner %d appeared without a join (old %v new %v)", g, id, a, b)
			}
		}
		if moved {
			changed++
		}
	}
	// Expected movement is R/N' = 2/5 of groups; far more means the hash
	// is reshuffling wholesale.
	if frac := float64(changed) / groups; frac > 0.55 {
		t.Errorf("join moved %.0f%% of groups, want ≈40%%", frac*100)
	}
}

// A leave must only re-home the departed node's groups.
func TestRingMinimalMovementOnLeave(t *testing.T) {
	old := ringOf(0, 1, 2, 3, 4)
	shrunk := old.without(2)
	var a, b []int
	for g := uint64(0); g < 5000; g++ {
		a = old.replicas(g, 2, a)
		b = shrunk.replicas(g, 2, b)
		if slices.Contains(a, 2) {
			continue // this group legitimately re-homes
		}
		for i := range a {
			if b[i] != a[i] {
				t.Fatalf("group %d: owners changed %v → %v though node 2 owned nothing here", g, a, b)
			}
		}
	}
}

func TestRingVersionMonotonic(t *testing.T) {
	r := ringOf(0, 1)
	r2 := r.with(2)
	r3 := r2.without(0)
	if !(r.version < r2.version && r2.version < r3.version) {
		t.Fatalf("versions not monotonic: %d %d %d", r.version, r2.version, r3.version)
	}
	if r3.has(0) || !r3.has(2) {
		t.Fatalf("membership wrong after with/without: %+v", r3.ids)
	}
}
