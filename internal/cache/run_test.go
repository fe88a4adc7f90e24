package cache

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/block"
)

// runPages is how many pages the histories below spread their blocks over:
// few enough that fully-resident runs are common, with a capacity that
// cannot hold them all, so Remove and eviction keep reshuffling the slots.
const runPages, runCapacity = 4, 24

// replayRun builds a table with newCache through the history ops: each
// byte names a block of one of runPages pages and adds it (evicting the
// victim when full), notes a hit on it, or removes it.
func replayRun(newCache func(int) *Cache, ops []byte) *Cache {
	c := newCache(runCapacity)
	for _, op := range ops {
		k := key(uint64(op>>2) % (runPages * block.BlocksPerPage))
		slot, ok := c.Lookup(k)
		switch {
		case !ok && op&3 != 3:
			if c.Len() == c.Capacity() {
				v, _ := c.VictimSlot()
				c.Remove(v)
			}
			c.Add(k)
		case ok && op&3 == 3:
			c.Remove(slot)
		case ok:
			c.Hit(slot)
		}
	}
	return c
}

// residentRuns lists every run [lo, hi) of a page whose blocks are all
// resident, as page·64 + lo·8 + hi-1.
func residentRuns(c *Cache) (runs []int) {
	for pg := 0; pg < runPages; pg++ {
		entry := c.Page(key(uint64(pg * block.BlocksPerPage)))
		for lo := 0; lo < block.BlocksPerPage; lo++ {
			for hi := lo + 1; hi <= block.BlocksPerPage && entry[hi-1] != 0; hi++ {
				runs = append(runs, pg*64+lo*8+hi-1)
			}
		}
	}
	return runs
}

// Where an LRU run lies before HitRun, which decides what TouchRun does.
const (
	runFront    = iota // one segment, leading the list: nothing moves
	runSplice          // one segment elsewhere: one splice
	runFallback        // not one segment: relinked a block at a time
)

// runCase reports where the run lies in an order listed newest first.
func runCase(order []uint32, page [block.BlocksPerPage]uint32, lo, hi int) int {
	at := slices.Index(order, page[hi-1]-1)
	for b := hi - 2; b >= lo; b-- {
		if at++; at >= len(order) || order[at] != page[b]-1 {
			return runFallback
		}
	}
	if order[0] == page[hi-1]-1 {
		return runFront
	}
	return runSplice
}

// checkHitRun replays ops on two tables built by newCache, applies
// HitRun to the pick-th fully-resident run on one and Hit to each of its
// slots in block order on the other, and requires the same order and the
// same victims until both are empty. It returns the run's case, -1 when
// there is no run to pick.
func checkHitRun(t *testing.T, newCache func(int) *Cache, ops []byte, pick int) int {
	t.Helper()
	run, hit := replayRun(newCache, ops), replayRun(newCache, ops)
	policy := run.Name()
	runs := residentRuns(run)
	if len(runs) == 0 {
		return -1
	}
	r := runs[pick%len(runs)]
	page := run.Page(key(uint64(r / 64 * block.BlocksPerPage)))
	lo, hi := r/8%8, r%8+1
	kind := runCase(run.AppendSlots(nil), page, lo, hi)
	run.HitRun(page, lo, hi)
	for _, s := range page[lo:hi] {
		hit.Hit(s - 1)
	}
	if got, want := run.AppendSlots(nil), hit.AppendSlots(nil); !slices.Equal(got, want) {
		t.Fatalf("%s: HitRun(%v, %d, %d) left order %v, Hits left %v", policy, page, lo, hi, got, want)
	}
	for n := 0; run.Len() > 0; n++ {
		got, _ := run.VictimSlot()
		want, _ := hit.VictimSlot()
		if got != want {
			t.Fatalf("%s: after HitRun(%v, %d, %d), victim %d is slot %d, Hits give %d", policy, page, lo, hi, n, got, want)
		}
		run.Remove(got)
		hit.Remove(want)
	}
	return kind
}

// TestHitRunMatchesHits pins HitRun to per-slot Hits in block order on
// random histories, under every order, and requires the LRU histories to
// reach each of TouchRun's three cases: a run already at the front, a
// splice, and the block-at-a-time fallback.
func TestHitRunMatchesHits(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, newCache := range engines {
		var cases [3]int
		for i := 0; i < 3000; i++ {
			ops := make([]byte, rng.Intn(200))
			rng.Read(ops)
			if k := checkHitRun(t, newCache, ops, rng.Int()); k >= 0 {
				cases[k]++
			}
		}
		policy := newCache(1).Name()
		t.Logf("%s: front/splice/fallback %v", policy, cases)
		if policy == "LRU" && slices.Contains(cases[:], 0) {
			t.Errorf("LRU histories reached front/splice/fallback %v times, want each at least once", cases)
		}
	}
}

// FuzzHitRunMatchesHits is TestHitRunMatchesHits over arbitrary histories.
func FuzzHitRunMatchesHits(f *testing.F) {
	pageIn := make([]byte, block.BlocksPerPage) // one page added in block order
	for b := range pageIn {
		pageIn[b] = byte(b << 2)
	}
	f.Add(uint8(0), pageIn, uint16(7))                               // LRU: whole page, at the front
	f.Add(uint8(0), append(slices.Clone(pageIn), 9<<2), uint16(7))   // whole page, spliced
	f.Add(uint8(0), append(slices.Clone(pageIn), 3<<2|1), uint16(7)) // block 3 hit since: fallback
	for e := range engines[1:] {
		f.Add(uint8(e+1), append(slices.Clone(pageIn), 3<<2|1), uint16(20))
	}
	f.Fuzz(func(t *testing.T, engine uint8, ops []byte, pick uint16) {
		checkHitRun(t, engines[int(engine)%len(engines)], ops, int(pick))
	})
}
