package cache

import (
	"math/rand"
	"testing"

	"repro/internal/block"
)

// checkIndex compares c with model, key→slot of every resident block:
// Lookup, Contains and Page agree with it on every key of keys, Len counts
// it, the index holds one entry per page with a resident block and no
// all-zero entry, and the memo equals the index's entry for its page.
func checkIndex(t *testing.T, step int, c *Cache, model map[block.Key]uint32, keys []block.Key) {
	t.Helper()
	if c.Len() != len(model) {
		t.Fatalf("step %d: Len %d, model holds %d", step, c.Len(), len(model))
	}
	for _, k := range keys {
		want, resident := model[k]
		slot, ok := c.Lookup(k)
		if ok != resident || (ok && slot != want) || c.Contains(k) != resident {
			t.Fatalf("step %d: %v: Lookup (%d, %v), Contains %v; model (%d, %v)", step, k, slot, ok, c.Contains(k), want, resident)
		}
		if got := c.Page(k)[k%block.BlocksPerPage]; (got != 0) != resident || (resident && got != want+1) {
			t.Fatalf("step %d: %v: Page holds %d, model slot %d resident %v", step, k, got, want, resident)
		}
	}
	pages := make(map[block.Key]bool)
	for k := range model {
		pages[k.Page()] = true
	}
	for pk, pg := range c.index {
		if pg == [block.BlocksPerPage]uint32{} || !pages[pk] {
			t.Fatalf("step %d: index entry %v = %v, model has no block of that page", step, pk, pg)
		}
	}
	if len(c.index) != len(pages) {
		t.Fatalf("step %d: %d index entries for %d resident pages", step, len(c.index), len(pages))
	}
	if c.memo != c.index[c.memoPage] {
		t.Fatalf("step %d: memo of page %v holds %v, index %v", step, c.memoPage, c.memo, c.index[c.memoPage])
	}
}

// TestPageIndexMatchesModel drives Add, Remove and SwapSlots over keys
// that leave pages partially resident — twelve pages on two volumes — and
// walks runs of page-mates with Touch, and Insert on a miss, as the
// simulator does. It checks the page index and the memo against a plain
// key→slot map after every step, through a 20-block cache and through a
// 5-block one, smaller than a page, where a walk's Insert evicts blocks of
// the page being walked.
func TestPageIndexMatchesModel(t *testing.T) {
	var keys []block.Key
	for v := 0; v < 2; v++ {
		for n := uint64(0); n < 6*block.BlocksPerPage; n++ {
			keys = append(keys, block.MakeKey(0, v, n))
		}
	}
	for _, newCache := range []func(int) *Cache{New, NewSieve} {
		t.Run(newCache(1).Name(), func(t *testing.T) {
			for _, capacity := range []int{20, 5} {
				checkPageIndex(t, newCache(capacity), keys)
			}
		})
	}
}

func checkPageIndex(t *testing.T, c *Cache, keys []block.Key) {
	rng := rand.New(rand.NewSource(11))
	model := make(map[block.Key]uint32)
	resident := func() (block.Key, uint32, bool) {
		slots := c.AppendSlots(nil)
		if len(slots) == 0 {
			return 0, 0, false
		}
		slot := slots[rng.Intn(len(slots))]
		return c.Key(slot), slot, true
	}
	drop := func(slot uint32) {
		delete(model, c.Key(slot))
		c.Remove(slot)
	}
	// insert Inserts a missed k: it takes the victim's slot when the cache
	// is full, else the last freed slot, else a new one.
	insert := func(step int, k block.Key) {
		full, slot, victim := c.Len() == c.Capacity(), uint32(len(c.keys)), block.Key(0)
		if n := len(c.free); full {
			slot, _ = c.VictimSlot()
			victim = c.Key(slot)
		} else if n > 0 {
			slot = c.free[n-1]
		}
		if evicted, ok := c.Insert(k); ok != full || (full && evicted != victim) {
			t.Fatalf("step %d: Insert(%v) = (%v, %v), want (%v, %v)", step, k, evicted, ok, victim, full)
		}
		if full {
			delete(model, victim)
		}
		model[k] = slot
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(100); {
		case op < 40: // add, evicting the victim when full
			k := keys[rng.Intn(len(keys))]
			if _, ok := model[k]; ok {
				break
			}
			if c.Len() == c.Capacity() {
				victim, _ := c.VictimSlot()
				drop(victim)
			}
			model[k] = c.Add(k)
		case op < 60: // walk page-mates from a random block to the page's end
			pg := keys[rng.Intn(len(keys))].Page()
			for k := pg + block.Key(rng.Intn(block.BlocksPerPage)); k < pg+block.BlocksPerPage; k++ {
				if _, ok := model[k]; c.Touch(k) != ok {
					t.Fatalf("step %d: Touch(%v) = %v, model resident %v", step, k, !ok, ok)
				} else if !ok {
					insert(step, k)
				}
				checkIndex(t, step, c, model, keys)
			}
		case op < 95:
			if _, slot, ok := resident(); ok {
				drop(slot)
			}
		default: // an epoch swap to a random set, some of it resident
			set := make([]block.Key, 0, 24)
			for _, i := range rng.Perm(len(keys))[:rng.Intn(24)] {
				set = append(set, keys[i])
			}
			moved, _ := c.SwapSlots(set, drop)
			for _, slot := range moved {
				model[c.Key(slot)] = slot
			}
		}
		checkIndex(t, step, c, model, keys)
	}
}

// TestPageIndexDoesNotLeak pushes 100 000 distinct pages, one to eight
// blocks of each, through a 64-block cache: a page's entry must go with its
// last block, so at most 64 entries remain.
func TestPageIndexDoesNotLeak(t *testing.T) {
	for _, c := range []*Cache{New(64), NewSieve(64)} {
		rng := rand.New(rand.NewSource(5))
		for p := uint64(0); p < 100000; p++ {
			first := block.MakeKey(1, 2, p*block.BlocksPerPage)
			for b := rng.Intn(block.BlocksPerPage); b < block.BlocksPerPage; b++ {
				c.Insert(first + block.Key(b))
			}
		}
		if c.Len() != 64 || len(c.index) > 64 {
			t.Errorf("%s: %d resident blocks in %d index entries, want 64 in at most 64", c.Name(), c.Len(), len(c.index))
		}
	}
}
