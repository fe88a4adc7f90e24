package cache

import (
	"math/rand"
	"testing"

	"repro/internal/block"
)

// checkIndex compares c with model, key→slot of every resident block:
// Lookup, Contains and Page agree with it on every key of keys, Len counts
// it, and the index holds one entry per page with a resident block and no
// all-zero entry.
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
}

// TestPageIndexMatchesModel drives Add, Remove and SwapSlots over keys
// that leave pages partially resident — twelve pages on two volumes
// through a 20-block cache — and checks the page index against a plain
// key→slot map after every step.
func TestPageIndexMatchesModel(t *testing.T) {
	var keys []block.Key
	for v := 0; v < 2; v++ {
		for n := uint64(0); n < 6*block.BlocksPerPage; n++ {
			keys = append(keys, block.MakeKey(0, v, n))
		}
	}
	for _, c := range []*Cache{New(20), NewSieve(20)} {
		t.Run(c.Name(), func(t *testing.T) {
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
			for step := 0; step < 20000; step++ {
				switch op := rng.Intn(100); {
				case op < 60: // add, evicting the victim when full
					k := keys[rng.Intn(len(keys))]
					if _, ok := model[k]; ok {
						break
					}
					if c.Len() == c.Capacity() {
						victim, _ := c.VictimSlot()
						drop(victim)
					}
					model[k] = c.Add(k)
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
		})
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
