package cluster

import "testing"

func TestRingReplicasDeterministicAndDistinct(t *testing.T) {
	r := ring(5)
	var scratch []int
	for g := uint64(0); g < 2000; g++ {
		first := append([]int(nil), r.replicas(g, 3, scratch)...)
		if len(first) != 3 {
			t.Fatalf("group %d: got %d replicas, want 3", g, len(first))
		}
		seen := map[int]bool{}
		for _, id := range first {
			if id < 0 || id >= int(r) {
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
	r := ring(2)
	got := r.replicas(42, 5, nil)
	if len(got) != 2 {
		t.Fatalf("want 2 replicas from a 2-node ring, got %v", got)
	}
}

func TestRingDistributionRoughlyUniform(t *testing.T) {
	r := ring(5)
	const groups = 20000
	primary := map[int]int{}
	var scratch []int
	for g := uint64(0); g < groups; g++ {
		scratch = r.replicas(g, 1, scratch)
		primary[scratch[0]]++
	}
	mean := groups / int(r)
	for id, n := range primary {
		if n < mean*7/10 || n > mean*13/10 {
			t.Errorf("node %d owns %d of %d groups (mean %d): skewed placement", id, n, groups, mean)
		}
	}
}
