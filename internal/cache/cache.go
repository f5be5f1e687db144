// Package cache implements the set-associative cache models used by the
// simulator: the private L1s, the set-partitioned shared LLC of Section 8,
// and the resize semantics that dynamic partitioning relies on.
//
// Partitioning follows the paper's evaluation: the LLC is set-partitioned
// (following Bespoke/Chunked-cache-style designs [15, 37, 46]), so a domain's
// partition is an independent region of sets and resizing changes the number
// of sets a domain owns. Lines are remapped on resize: lines whose new set
// index still exists are reinserted (respecting associativity), the rest are
// written back and dropped.
//
// Access is the simulator's hottest function (every simulated memory
// reference passes through an L1, often an LLC partition, and the monitor's
// shadow arrays), so its state is laid out for the scan, not the object
// model: tags live in a packed []uint64 scanned 8-per-cache-line, LRU/dirty
// metadata is only touched on the way that hits, and the set index uses a
// precomputed Lemire reciprocal instead of a hardware divide.
package cache

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"untangle/internal/telemetry"
)

// LineBytes is the line size used throughout the simulated hierarchy
// (Table 3: 64 B lines everywhere).
const LineBytes = 64

// Config describes a cache geometry.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int64
	// Ways is the associativity.
	Ways int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	if c.Ways <= 0 {
		return 0
	}
	return int(c.SizeBytes / int64(LineBytes*c.Ways))
}

// Validate checks the geometry is realizable.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways = %d", c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%int64(LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not a multiple of way capacity %d", c.SizeBytes, LineBytes*c.Ways)
	}
	return nil
}

// Stats counts cache events.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	// Prefetches counts lines installed by Prefetch (not demand traffic).
	Prefetches uint64
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns the hit fraction, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Writebacks += other.Writebacks
	s.Prefetches += other.Prefetches
}

// Sub subtracts a baseline snapshot from s (interval statistics).
func (s *Stats) Sub(base Stats) {
	s.Hits -= base.Hits
	s.Misses -= base.Misses
	s.Evictions -= base.Evictions
	s.Writebacks -= base.Writebacks
	s.Prefetches -= base.Prefetches
}

// line is one cache line in array-of-structs form. Both the resizable Cache
// and WayPartitioned store their state split (tags packed apart from
// metadata); line remains the working representation for the transient
// survivor list a Resize builds.
type line struct {
	lineAddr uint64
	lru      uint64
	valid    bool
	dirty    bool
}

// Cache is a set-associative, true-LRU, write-back cache with a resizable
// number of sets.
//
// State is laid out structure-of-arrays: tags holds lineAddr+1 for valid
// lines (0 = invalid) so the scan needs no separate valid bit, lru holds
// the per-line LRU tick (scanned only on eviction), and dirty the
// write-back flag (read only for the evicted way). All are sets*ways,
// set-major, and each scan — tag match, LRU victim — walks one packed
// array: 8 entries per cache line instead of the 2⅔ the old
// array-of-structs layout gave.
type Cache struct {
	ways  int
	sets  int
	tags  []uint64
	lru   []uint64
	dirty []bool
	// modHi/modLo form the 128-bit Lemire reciprocal ceil(2^128/sets),
	// recomputed on Resize; setIndex uses it to replace the % divide.
	modHi, modLo uint64
	tick         uint64
	stats        Stats
	// replacement-policy state (see policy.go); LRU needs none beyond the
	// per-line tick.
	policy Policy
	plru   []uint32
	rng    uint64
	// survivors is Resize's reinsertion buffer, kept so repeated resizes
	// of a dynamic partition sort in place instead of allocating.
	survivors []line
}

// New builds a cache with the given geometry.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{ways: cfg.Ways, sets: cfg.Sets()}
	c.tags = make([]uint64, c.sets*c.ways)
	c.lru = make([]uint64, c.sets*c.ways)
	c.dirty = make([]bool, c.sets*c.ways)
	c.modHi, c.modLo = reciprocal(uint64(c.sets))
	return c, nil
}

// MustNew builds a cache and panics on invalid geometry. For tests and
// static tables whose configs are compile-time constants.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets returns the current number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SizeBytes returns the current capacity.
func (c *Cache) SizeBytes() int64 { return int64(c.sets) * int64(c.ways) * LineBytes }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (used after warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// RegisterMetrics exposes the cache's hit/miss/eviction counters and
// current geometry on a telemetry registry under prefix, as
// lazily-evaluated gauges: Access stays untouched and the counters are
// read only when the registry snapshots (after the run, or at another
// quiescent point).
func (c *Cache) RegisterMetrics(reg *telemetry.Registry, prefix string) {
	reg.GaugeFunc(prefix+".hits", func() float64 { return float64(c.stats.Hits) })
	reg.GaugeFunc(prefix+".misses", func() float64 { return float64(c.stats.Misses) })
	reg.GaugeFunc(prefix+".evictions", func() float64 { return float64(c.stats.Evictions) })
	reg.GaugeFunc(prefix+".writebacks", func() float64 { return float64(c.stats.Writebacks) })
	reg.GaugeFunc(prefix+".prefetches", func() float64 { return float64(c.stats.Prefetches) })
	reg.GaugeFunc(prefix+".size_bytes", func() float64 { return float64(c.SizeBytes()) })
}

// reciprocal computes ceil(2^128/d) as a 128-bit value (hi, lo). With it,
// fastmod reduces any 64-bit value mod d without a divide. d == 1 wraps to
// (0, 0), for which fastmod correctly yields 0 everywhere.
func reciprocal(d uint64) (hi, lo uint64) {
	// floor((2^128 - 1) / d) by schoolbook two-word division, then + 1.
	hi = ^uint64(0) / d
	rem := ^uint64(0) % d
	lo, _ = bits.Div64(rem, ^uint64(0), d)
	lo++
	if lo == 0 {
		hi++
	}
	return hi, lo
}

// fastmod returns x % d given the precomputed reciprocal (mHi, mLo) for d.
// This is the 64-bit variant of Lemire/Kaser/Kurz "Faster Remainder by
// Direct Computation": frac = x * ceil(2^128/d) mod 2^128, result =
// floor(frac * d / 2^128). Exact for every x and every d >= 1 (the error
// term e*x with e < d stays below 2^128), three multiplies instead of a
// 20-40 cycle hardware divide.
func fastmod(x, mHi, mLo, d uint64) uint64 {
	fracHi, fracLo := bits.Mul64(mLo, x)
	fracHi += mHi * x
	aHi, _ := bits.Mul64(fracLo, d)
	bHi, bLo := bits.Mul64(fracHi, d)
	_, carry := bits.Add64(aHi, bLo, 0)
	return bHi + carry
}

// setIndex maps a line address to its set.
func (c *Cache) setIndex(lineAddr uint64) int {
	// Mix the upper bits into the index so strided patterns spread across
	// sets the way physical indexing does. The mix must be consistent across
	// resizes only in that it is a pure function of the line address.
	h := lineAddr * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(fastmod(h, c.modHi, c.modLo, uint64(c.sets)))
}

// Access performs a load or store of the line containing addr. It returns
// true on hit. Misses allocate (write-allocate policy) and evict LRU.
//
// The way scan reads only the packed tag array; LRU/dirty updates and the
// replacement-policy branches happen after the scan, on the single way
// involved.
func (c *Cache) Access(addr uint64, write bool) bool {
	lineAddr := addr / LineBytes
	set := c.setIndex(lineAddr)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	tag := lineAddr + 1
	c.tick++
	hit, empty := -1, -1
	for i, t := range tags {
		if t == tag {
			hit = i
			break
		}
		if t == 0 && empty < 0 {
			empty = i
		}
	}
	if hit >= 0 {
		c.lru[base+hit] = c.tick
		if write {
			c.dirty[base+hit] = true
		}
		if c.policy == TreePLRU {
			c.plruTouch(set, hit, c.ways)
		}
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	slot := empty
	if slot < 0 {
		slot = c.victimFor(set, base)
		c.stats.Evictions++
		if c.dirty[base+slot] {
			c.stats.Writebacks++
		}
	}
	c.tags[base+slot] = tag
	c.lru[base+slot] = c.tick
	c.dirty[base+slot] = write
	if c.policy == TreePLRU {
		c.plruTouch(set, slot, c.ways)
	}
	return false
}

// ShadowAccess is Access for monitor shadow-tag arrays: the same lookup,
// LRU bookkeeping, and replacement decisions — the hit/miss sequence and
// resident-line evolution are identical to Access's — but no statistics or
// dirty-line tracking, which shadow arrays never read (they have no lower
// level to write back to). The behavioural alignment is what keeps
// monitors fed through recorded hit masks (monitor.HitMask/ObserveMask)
// bitwise-equal to live ones.
func (c *Cache) ShadowAccess(addr uint64) bool {
	lineAddr := addr / LineBytes
	set := c.setIndex(lineAddr)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	tag := lineAddr + 1
	c.tick++
	hit, empty := -1, -1
	for i, t := range tags {
		if t == tag {
			hit = i
			break
		}
		if t == 0 && empty < 0 {
			empty = i
		}
	}
	if hit >= 0 {
		c.lru[base+hit] = c.tick
		if c.policy == TreePLRU {
			c.plruTouch(set, hit, c.ways)
		}
		return true
	}
	slot := empty
	if slot < 0 {
		slot = c.victimFor(set, base)
	}
	c.tags[base+slot] = tag
	c.lru[base+slot] = c.tick
	if c.policy == TreePLRU {
		c.plruTouch(set, slot, c.ways)
	}
	return false
}

// Prefetch installs the line containing addr if absent, inserting it in LRU
// position below the most-recent line (conservative insertion, so useless
// prefetches are evicted first). It does not touch demand hit/miss counters.
func (c *Cache) Prefetch(addr uint64) {
	lineAddr := addr / LineBytes
	set := c.setIndex(lineAddr)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	tag := lineAddr + 1
	var victim, empty = -1, -1
	var oldest uint64 = ^uint64(0)
	for i, t := range tags {
		if t == tag {
			return // already resident; leave LRU state alone
		}
		if t == 0 {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if m := c.lru[base+i]; m < oldest {
			oldest = m
			victim = i
		}
	}
	slot := empty
	if slot < 0 {
		slot = victim
		c.stats.Evictions++
		if c.dirty[base+slot] {
			c.stats.Writebacks++
		}
	}
	c.stats.Prefetches++
	// Insert one tick below the current time so a demand access dominates.
	lru := c.tick
	if lru > 0 {
		lru--
	}
	c.tags[base+slot] = tag
	c.lru[base+slot] = lru
	c.dirty[base+slot] = false
}

// Contains reports whether the line holding addr is present, without
// touching LRU state or statistics (a "probe" for tests and attackers).
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr / LineBytes
	base := c.setIndex(lineAddr) * c.ways
	tag := lineAddr + 1
	for _, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return true
		}
	}
	return false
}

// ValidLines returns the number of valid lines (for invariant checks).
func (c *Cache) ValidLines() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// Reset returns the cache to its freshly-constructed state at the current
// geometry: all lines invalid, the LRU clock and statistics zeroed, and any
// replacement-policy state (PLRU tree bits, random seed) back to its initial
// value. Unlike Flush it counts nothing — it exists so long-running studies
// can reuse one allocation across independent runs, and the contract is that
// a Reset cache behaves bit-identically to a new one.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.lru)
	clear(c.dirty)
	clear(c.plru)
	c.tick = 0
	c.rng = 0
	c.stats = Stats{}
}

// Flush invalidates everything, counting writebacks for dirty lines.
func (c *Cache) Flush() {
	for i := range c.tags {
		if c.tags[i] != 0 && c.dirty[i] {
			c.stats.Writebacks++
		}
		c.tags[i] = 0
		c.lru[i] = 0
		c.dirty[i] = false
	}
}

// Resize changes the number of sets to match newSize, preserving lines
// whose new set has room (LRU order decides who survives an over-full set).
// Dirty dropped lines count as writebacks. Resizing to the current size is
// a no-op so Maintain actions cost nothing.
func (c *Cache) Resize(newSize int64) error {
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
	// Reinsert surviving lines in LRU order (oldest first) so that when a
	// new set overflows, the most recently used lines win. Lines with tied
	// stamps (Prefetch installs one tick below the clock) must keep the
	// order sort.Slice gives them: slices.SortFunc is generated from the
	// same pdqsort template and makes the same comparisons, and
	// TestResizeMatchesSortSliceOracle pins the permutation.
	survivors := c.survivors[:0]
	for i, t := range oldTags {
		if t != 0 {
			survivors = append(survivors, line{
				lineAddr: t - 1, lru: oldLRU[i], valid: true, dirty: oldDirty[i],
			})
		}
	}
	slices.SortFunc(survivors, func(a, b line) int { return cmp.Compare(a.lru, b.lru) })
	c.survivors = survivors
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
			// Set over-full after shrink: replace the LRU occupant (which
			// is older because we insert oldest-first). The displaced line
			// is dropped; count its writeback if dirty.
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
