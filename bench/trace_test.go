package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestCoveredCountsOverlapOnce(t *testing.T) {
	parent := span{0, 100}
	for _, c := range []struct {
		kids []span
		want int64
	}{
		{nil, 0},
		{[]span{{10, 20}}, 10},
		{[]span{{10, 20}, {15, 30}}, 20},           // overlapping children
		{[]span{{90, 120}, {-5, 5}}, 15},           // clipped to the parent
		{[]span{{40, 50}, {10, 20}, {45, 60}}, 30}, // out of order
		{[]span{{200, 300}}, 0},                    // outside
	} {
		if got := covered(parent, c.kids); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.kids, got, c.want)
		}
	}
}

// One traced op: the client saw 2000 ns, the server-side store call took
// 1000 of them, and a backend call took 400 of those.
func TestTracerFoldsSelfTime(t *testing.T) {
	tr := &tracer{wire: true, t0: time.Now()}
	tr.start()
	tr.begin(0, 64, &op{off: 4096, n: 4096})
	tr.link(false, 0, 0, 4096, span{100, 1100})
	tr.link(true, 0, 0, 4608, span{300, 700})
	tr.link(true, 0, 0, 1<<30, span{300, 700}) // no op in flight covers this address
	tr.end(0, tr.t0, 2000)

	l := tr.folded()
	for _, c := range []struct {
		name string
		h    *hist
		want int64
	}{
		{"client", &l.client, 2000}, {"wire self", &l.wireSelf, 1000},
		{"core call", &l.coreCall, 1000}, {"core self", &l.coreSelf, 600}, {"store call", &l.storeCall, 400},
	} {
		if c.h.n != 1 || c.h.sum != c.want {
			t.Errorf("%s: n=%d sum=%d, want one observation of %d", c.name, c.h.n, c.h.sum, c.want)
		}
	}
	if l.missOps != 1 || l.missSelfNs != 600 || l.hitOps != 0 {
		t.Errorf("miss ops=%d self=%d, hit ops=%d", l.missOps, l.missSelfNs, l.hitOps)
	}
	if got := tr.orphans.Load(); got != 1 {
		t.Errorf("orphans = %d, want 1", got)
	}

	var tree struct {
		Op    int64
		Spans []struct {
			Name   string
			Parent int
		}
	}
	if err := json.Unmarshal(bytes.TrimSpace(l.samples), &tree); err != nil {
		t.Fatalf("sample %q: %v", l.samples, err)
	}
	if tree.Op != 64 || len(tree.Spans) != 3 ||
		tree.Spans[0].Name != "appliance.client" || tree.Spans[0].Parent != -1 ||
		tree.Spans[1].Name != "core" || tree.Spans[1].Parent != 0 ||
		tree.Spans[2].Name != "store" || tree.Spans[2].Parent != 1 {
		t.Errorf("span tree = %+v", tree)
	}

	// An op with no backend child is a hit.
	tr.begin(1, 65, &op{off: 0, n: 512})
	tr.link(false, 0, 0, 0, span{0, 150})
	tr.end(1, tr.t0, 150)
	if l := tr.folded(); l.hitOps != 1 || l.hitNs != 150 {
		t.Errorf("hit ops=%d ns=%d, want 1 and 150", l.hitOps, l.hitNs)
	}
}
