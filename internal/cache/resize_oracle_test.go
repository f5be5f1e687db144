package cache

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// resizeSortSlice is Resize as it was written before the reinsertion
// buffer was kept on the Cache and sorted with slices.SortFunc: a fresh
// survivors slice ordered by the reflection-based sort.Slice. It is the
// oracle for the permutation the faster sort must reproduce.
func resizeSortSlice(c *Cache, newSize int64) error {
	cfg := Config{SizeBytes: newSize, Ways: c.ways}
	if err := cfg.Validate(); err != nil {
		return err
	}
	newSets := cfg.Sets()
	if newSets == c.sets {
		return nil
	}
	oldTags, oldLRU, oldDirty := c.tags, c.lru, c.dirty
	c.sets = newSets
	c.modHi, c.modLo = reciprocal(uint64(newSets))
	c.tags = make([]uint64, newSets*c.ways)
	c.lru = make([]uint64, newSets*c.ways)
	c.dirty = make([]bool, newSets*c.ways)
	if c.plru != nil {
		c.plru = make([]uint32, newSets)
	}
	survivors := make([]line, 0, len(oldTags))
	for i, t := range oldTags {
		if t != 0 {
			survivors = append(survivors, line{
				lineAddr: t - 1, lru: oldLRU[i], valid: true, dirty: oldDirty[i],
			})
		}
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].lru < survivors[j].lru })
	for _, l := range survivors {
		set := c.setIndex(l.lineAddr)
		base := set * c.ways
		placed := false
		slot, oldest := -1, ^uint64(0)
		for i := 0; i < c.ways; i++ {
			if c.tags[base+i] == 0 {
				c.tags[base+i] = l.lineAddr + 1
				c.lru[base+i] = l.lru
				c.dirty[base+i] = l.dirty
				placed = true
				break
			}
			if m := c.lru[base+i]; m < oldest {
				oldest = m
				slot = i
			}
		}
		if !placed {
			if oldest < l.lru {
				if c.dirty[base+slot] {
					c.stats.Writebacks++
				}
				c.tags[base+slot] = l.lineAddr + 1
				c.lru[base+slot] = l.lru
				c.dirty[base+slot] = l.dirty
			} else if l.dirty {
				c.stats.Writebacks++
			}
		}
	}
	return nil
}

// tiedStamps reports whether two valid lines share an LRU stamp.
func tiedStamps(c *Cache) bool {
	var stamps []uint64
	for i, t := range c.tags {
		if t != 0 {
			stamps = append(stamps, c.lru[i])
		}
	}
	slices.Sort(stamps)
	for i := 1; i < len(stamps); i++ {
		if stamps[i] == stamps[i-1] {
			return true
		}
	}
	return false
}

// TestResizeMatchesSortSliceOracle drives two caches through the same
// accesses, Prefetch bursts (every line a burst installs carries the same
// stamp, so the sort sees long runs of ties), and grow/shrink sequences
// over non-power-of-two set counts, resizing one with Resize and the other
// with the sort.Slice oracle. Tags, LRU stamps, dirty bits and statistics
// must stay bit-equal after every step.
func TestResizeMatchesSortSliceOracle(t *testing.T) {
	const ways = 8
	way := int64(ways * LineBytes)
	setCounts := []int64{3, 4, 5, 7, 12, 16, 24, 48, 64, 96}
	tiedResizes := 0
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		got := MustNew(Config{SizeBytes: 16 * way, Ways: ways})
		want := MustNew(Config{SizeBytes: 16 * way, Ways: ways})
		addr := func() uint64 { return uint64(r.Intn(4096)) * LineBytes }
		for step := 0; step < 40; step++ {
			for i, n := 0, r.Intn(600); i < n; i++ {
				if r.Intn(8) == 0 {
					for k, burst := 0, 1+r.Intn(24); k < burst; k++ {
						a := addr()
						got.Prefetch(a)
						want.Prefetch(a)
					}
					continue
				}
				a, w := addr(), r.Intn(4) == 0
				if got.Access(a, w) != want.Access(a, w) {
					t.Fatalf("seed %d step %d: access outcomes diverged", seed, step)
				}
			}
			size := setCounts[r.Intn(len(setCounts))] * way
			if size != int64(got.Sets())*way && tiedStamps(want) {
				tiedResizes++
			}
			if err := got.Resize(size); err != nil {
				t.Fatal(err)
			}
			if err := resizeSortSlice(want, size); err != nil {
				t.Fatal(err)
			}
			if got.sets != want.sets || got.modHi != want.modHi || got.modLo != want.modLo ||
				!slices.Equal(got.tags, want.tags) || !slices.Equal(got.lru, want.lru) ||
				!slices.Equal(got.dirty, want.dirty) || got.Stats() != want.Stats() {
				t.Fatalf("seed %d step %d: resize to %d sets diverged from the sort.Slice oracle (stats %+v vs %+v)",
					seed, step, size/way, got.Stats(), want.Stats())
			}
		}
	}
	if tiedResizes == 0 {
		t.Fatal("no resize saw tied LRU stamps; the test does not exercise tie order")
	}
}
