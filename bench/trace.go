package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appliance"
	"repro/internal/core"
)

// The traced run records a span at every boundary the benchmark itself can
// stand on: the client's call, the server-side store call, the backend
// call, and the epoch rotation. Spans inside core and appliance are a
// later issue, so a server-side span finds its client op through the
// client's "op in flight" slot: the op whose address range holds the
// span's offset. Each op's spans are folded into per-layer histograms when
// the op completes; one op in 64 keeps its whole span tree for the sample
// file.

// span is one timed interval, in nanoseconds since the traced pass began.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// covered returns how much of parent its children cover, counting
// overlapping children once: a layer's self time is its span minus this.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	kids := make([]span, 0, len(children))
	for _, k := range children {
		if k.start < parent.start {
			k.start = parent.start
		}
		if k.end > parent.end {
			k.end = parent.end
		}
		if k.end > k.start {
			kids = append(kids, k)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var total, reach int64
	reach = parent.start
	for _, k := range kids {
		if k.start > reach {
			reach = k.start
		}
		if k.end > reach {
			total += k.end - reach
			reach = k.end
		}
	}
	return total
}

// slot is one client's op in flight and the spans linked to it so far.
type slot struct {
	mu             sync.Mutex
	active         bool
	id             int64
	write          bool
	server, volume int
	off, end       uint64
	core, store    []span
}

// layers is what one client's completed ops folded into.
type layers struct {
	client, wireSelf    hist // appliance.*, wire_* only
	coreCall, coreSelf  hist
	storeCall           hist
	hitOps, hitNs       int64 // ops with no backend child
	missOps, missSelfNs int64
	sampled             int
	samples             []byte
}

const (
	sampleEvery = 64
	maxSamples  = 8192 // span trees kept per client, so lib_hot's file stays small
)

type tracer struct {
	wire       bool
	t0         time.Time
	slots      [clients]slot
	per        [clients]layers
	background atomic.Bool // a rotation+flush is running
	bg         slot        // its backend spans
	bgStore    hist
	orphans    atomic.Int64 // server-side spans no op in flight claimed
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// start begins the traced pass: whatever the warm-up folded is dropped.
func (tr *tracer) start() {
	tr.t0 = time.Now()
	for c := range tr.per {
		tr.per[c] = layers{}
	}
	tr.bgStore = hist{}
	tr.orphans.Store(0)
}

func (tr *tracer) begin(c int, id int64, o *op) {
	s := &tr.slots[c]
	s.mu.Lock()
	s.active, s.id, s.write = true, id, o.write
	s.server, s.volume, s.off, s.end = int(o.server), int(o.volume), o.off, o.off+uint64(o.n)
	s.core, s.store = s.core[:0], s.store[:0]
	s.mu.Unlock()
}

// link hands a server-side span to the op in flight that covers its
// address; a backend span nobody covers belongs to the running rotation.
func (tr *tracer) link(backend bool, server, volume int, off uint64, sp span) {
	for c := range tr.slots {
		s := &tr.slots[c]
		s.mu.Lock()
		if s.active && s.server == server && s.volume == volume && off >= s.off && off < s.end {
			if backend {
				s.store = append(s.store, sp)
			} else {
				s.core = append(s.core, sp)
			}
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
	}
	if backend && tr.background.Load() {
		tr.bg.mu.Lock()
		tr.bg.store = append(tr.bg.store, sp)
		tr.bg.mu.Unlock()
		return
	}
	tr.orphans.Add(1)
}

// end folds the completed op of client c. t0 and d are the client's own
// span around its call.
func (tr *tracer) end(c int, t0 time.Time, d int64) {
	s, l := &tr.slots[c], &tr.per[c]
	start := int64(t0.Sub(tr.t0))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active = false
	var coreNs, self int64
	for _, k := range s.core {
		coreNs += k.dur()
		self += k.dur() - covered(k, s.store)
	}
	if tr.wire {
		l.client.observe(d)
		l.wireSelf.observe(d - coreNs)
	}
	l.coreCall.observe(coreNs)
	l.coreSelf.observe(self)
	for _, k := range s.store {
		l.storeCall.observe(k.dur())
	}
	if len(s.store) == 0 {
		l.hitOps++
		l.hitNs += coreNs
	} else {
		l.missOps++
		l.missSelfNs += self
	}
	if s.id%sampleEvery == 0 && l.sampled < maxSamples {
		l.sampled++
		l.samples = appendTree(l.samples, tr.wire, c, s, span{start, start + d})
	}
}

// appendTree writes one op's span tree as a JSON line. parent is an index
// into the same line's spans, -1 for the root.
func appendTree(b []byte, wire bool, c int, s *slot, client span) []byte {
	kind := "read"
	if s.write {
		kind = "write"
	}
	b = fmt.Appendf(b, `{"op":%d,"client":%d,"kind":%q,"spans":[`, s.id, c, kind)
	n := 0
	add := func(name string, sp span, parent int) {
		if n > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"name":%q,"start":%d,"end":%d,"parent":%d}`, name, sp.start, sp.end, parent)
		n++
	}
	root := -1
	if wire {
		add("appliance.client", client, -1)
		root = 0
	}
	firstCore := n
	for _, k := range s.core {
		add("core", k, root)
	}
	for _, k := range s.store {
		parent := firstCore
		for i, cs := range s.core {
			if k.start >= cs.start && k.end <= cs.end {
				parent = firstCore + i
			}
		}
		add("store", k, parent)
	}
	return append(b, "]}\n"...)
}

func (tr *tracer) beginBackground() {
	tr.bg.mu.Lock()
	tr.bg.store = tr.bg.store[:0]
	tr.bg.mu.Unlock()
	tr.background.Store(true)
}

func (tr *tracer) endBackground() {
	tr.background.Store(false)
	tr.bg.mu.Lock()
	for _, k := range tr.bg.store {
		tr.bgStore.observe(k.dur())
	}
	tr.bg.mu.Unlock()
}

// folded merges the clients' layers.
func (tr *tracer) folded() *layers {
	var sum layers
	for c := range tr.per {
		l := &tr.per[c]
		sum.client.merge(&l.client)
		sum.wireSelf.merge(&l.wireSelf)
		sum.coreCall.merge(&l.coreCall)
		sum.coreSelf.merge(&l.coreSelf)
		sum.storeCall.merge(&l.storeCall)
		sum.hitOps += l.hitOps
		sum.hitNs += l.hitNs
		sum.missOps += l.missOps
		sum.missSelfNs += l.missSelfNs
		sum.samples = append(sum.samples, l.samples...)
	}
	sum.storeCall.merge(&tr.bgStore)
	return &sum
}

// tracedStore is the server-side boundary: it embeds the store the server
// would have been given and times only the three calls of the I/O path, so
// the server's own code runs unchanged.
type tracedStore struct {
	appliance.BlockStore
	tr *tracer
}

func (t *tracedStore) ReadAt(server, volume int, p []byte, off uint64) error {
	start := t.tr.now()
	err := t.BlockStore.ReadAt(server, volume, p, off)
	t.tr.link(false, server, volume, off, span{start, t.tr.now()})
	return err
}

func (t *tracedStore) WriteAt(server, volume int, p []byte, off uint64) error {
	start := t.tr.now()
	err := t.BlockStore.WriteAt(server, volume, p, off)
	t.tr.link(false, server, volume, off, span{start, t.tr.now()})
	return err
}

func (t *tracedStore) ReadPinned(server, volume, n int, off uint64) *core.PinnedRead {
	start := t.tr.now()
	pr := t.BlockStore.ReadPinned(server, volume, n, off)
	t.tr.link(false, server, volume, off, span{start, t.tr.now()})
	return pr
}

// tracedBackend is the boundary between core and the ensemble.
type tracedBackend struct {
	core.Backend
	tr *tracer
}

func (t *tracedBackend) ReadAt(server, volume int, p []byte, off uint64) error {
	start := t.tr.now()
	err := t.Backend.ReadAt(server, volume, p, off)
	t.tr.link(true, server, volume, off, span{start, t.tr.now()})
	return err
}

func (t *tracedBackend) WriteAt(server, volume int, p []byte, off uint64) error {
	start := t.tr.now()
	err := t.Backend.WriteAt(server, volume, p, off)
	t.tr.link(true, server, volume, off, span{start, t.tr.now()})
	return err
}
