package exp

import (
	"fmt"

	"repro/internal/block"
)

// s3Node is an intrusive doubly-linked queue element with the S3-FIFO
// access-frequency counter (saturating at 3, as in the paper).
type s3Node struct {
	key        block.Key
	prev, next *s3Node
	freq       uint8
	main       bool
}

// s3Queue is a FIFO of s3Nodes: head.next is the newest entry, tail.prev
// the oldest.
type s3Queue struct {
	head, tail s3Node
	n          int
}

func (q *s3Queue) init() {
	q.head.next = &q.tail
	q.tail.prev = &q.head
}

func (q *s3Queue) pushFront(n *s3Node) {
	n.prev = &q.head
	n.next = q.head.next
	q.head.next.prev = n
	q.head.next = n
	q.n++
}

func (q *s3Queue) unlink(n *s3Node) {
	n.prev.next = n.next
	n.next.prev = n.prev
	q.n--
}

// oldest returns the eviction-side entry; only valid when q.n > 0.
func (q *s3Queue) oldest() *s3Node { return q.tail.prev }

// ghostEntry records an evicted-from-small key in the ghost FIFO; the
// entry is live iff the ghost map still holds its sequence number, so a
// key readmitted from the ghost leaves its entry stale instead of splicing
// the queue.
type ghostEntry struct {
	key block.Key
	seq uint64
}

// S3FIFO implements the S3-FIFO replacement policy (Yang et al.,
// SOSP'23): a small probationary FIFO (~10% of capacity) absorbing new
// blocks, a main FIFO holding proven ones, and a ghost queue remembering
// keys recently evicted from small. A block evicted from small while
// unaccessed is gone after one pass ("quick demotion"); one that was
// accessed is promoted to main, and one that misses but is remembered by
// the ghost re-enters directly into main. Hits only bump a 2-bit
// frequency counter — like SIEVE, no list surgery on the hit path.
//
// Not goroutine-safe.
type S3FIFO struct {
	capacity int
	smallCap int
	table    map[block.Key]*s3Node
	small    s3Queue
	main     s3Queue
	// ghost maps a remembered key to the seq of its live queue entry.
	ghost     map[block.Key]uint64
	ghostQ    []ghostEntry
	ghostHead int
	ghostSeq  uint64
	free      *s3Node
}

// NewS3FIFO returns an S3-FIFO tag store with the given total capacity in
// blocks (small + main). The ghost queue remembers up to main-capacity
// keys and costs O(capacity) memory.
func NewS3FIFO(capacity int) *S3FIFO {
	if capacity < 1 {
		panic(fmt.Sprintf("exp: S3-FIFO capacity must be ≥1, got %d", capacity))
	}
	smallCap := capacity / 10
	if smallCap < 1 {
		smallCap = 1
	}
	s := &S3FIFO{
		capacity: capacity,
		smallCap: smallCap,
		table:    make(map[block.Key]*s3Node),
		ghost:    make(map[block.Key]uint64),
	}
	s.small.init()
	s.main.init()
	return s
}

// Name implements TagStore.
func (s *S3FIFO) Name() string { return "S3-FIFO" }

// Len returns the number of resident blocks.
func (s *S3FIFO) Len() int { return len(s.table) }

// Touch implements TagStore: a hit saturates the frequency counter.
func (s *S3FIFO) Touch(key block.Key) bool {
	n, ok := s.table[key]
	if !ok {
		return false
	}
	if n.freq < 3 {
		n.freq++
	}
	return true
}

// Insert implements TagStore. Inserting a resident key bumps its
// frequency exactly as Touch would (the duplicate-insert contract). A new
// key enters the main queue when the ghost remembers it, the small queue
// otherwise, evicting first when full.
func (s *S3FIFO) Insert(key block.Key) (evicted block.Key, wasEvicted bool) {
	if n, ok := s.table[key]; ok {
		if n.freq < 3 {
			n.freq++
		}
		return 0, false
	}
	if len(s.table) >= s.capacity {
		v := s.victim()
		s.evictNode(v)
		evicted, wasEvicted = v.key, true
	}
	n := s.alloc(key)
	if _, ghosted := s.ghost[key]; ghosted {
		delete(s.ghost, key)
		n.main = true
		s.main.pushFront(n)
	} else {
		s.small.pushFront(n)
	}
	s.table[key] = n
	return evicted, wasEvicted
}

// victim advances queue state (promotions from small, second chances in
// main) until the next eviction victim sits unprotected at its queue's
// tail, and returns it. Terminates: each pass either moves a small entry
// to main (bounded by small's length) or decrements a frequency counter
// (bounded total). Only valid when Len() > 0.
func (s *S3FIFO) victim() *s3Node {
	for {
		if s.small.n >= s.smallCap || s.main.n == 0 {
			t := s.small.oldest()
			if t.freq > 0 {
				// Accessed while probationary: promote to main.
				s.small.unlink(t)
				t.freq = 0
				t.main = true
				s.main.pushFront(t)
				continue
			}
			return t
		}
		t := s.main.oldest()
		if t.freq > 0 {
			// Second chance: decay and reinsert at the head.
			t.freq--
			s.main.unlink(t)
			s.main.pushFront(t)
			continue
		}
		return t
	}
}

// evictNode removes a victim returned by victim(), remembering
// small-queue evictions in the ghost.
func (s *S3FIFO) evictNode(n *s3Node) {
	if n.main {
		s.main.unlink(n)
	} else {
		s.small.unlink(n)
		s.ghostAdd(n.key)
	}
	delete(s.table, n.key)
	n.next = s.free
	s.free = n
}

// ghostCap bounds the ghost queue to the main queue's capacity (the
// paper's sizing), at least one entry.
func (s *S3FIFO) ghostCap() int {
	c := s.capacity - s.smallCap
	if c < 1 {
		c = 1
	}
	return c
}

func (s *S3FIFO) ghostAdd(key block.Key) {
	if _, ok := s.ghost[key]; ok {
		return
	}
	s.ghostSeq++
	s.ghost[key] = s.ghostSeq
	s.ghostQ = append(s.ghostQ, ghostEntry{key: key, seq: s.ghostSeq})
	gcap := s.ghostCap()
	for len(s.ghost) > gcap {
		e := s.ghostQ[s.ghostHead]
		s.ghostHead++
		if s.ghost[e.key] == e.seq {
			delete(s.ghost, e.key)
		}
	}
	// Keep the queue O(capacity): rewrite it without the drained prefix
	// and stale entries once either dominates.
	if s.ghostHead*2 >= len(s.ghostQ) && s.ghostHead > 0 || len(s.ghostQ) >= 2*gcap {
		live := s.ghostQ[:0]
		for _, e := range s.ghostQ[s.ghostHead:] {
			if s.ghost[e.key] == e.seq {
				live = append(live, e)
			}
		}
		s.ghostQ = live
		s.ghostHead = 0
	}
}

func (s *S3FIFO) alloc(key block.Key) *s3Node {
	if s.free != nil {
		n := s.free
		s.free = n.next
		n.key, n.prev, n.next, n.freq, n.main = key, nil, nil, 0, false
		return n
	}
	return &s3Node{key: key}
}
