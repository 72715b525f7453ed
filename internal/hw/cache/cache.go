// Package cache implements a set-associative, write-back, write-allocate
// cache with true-LRU replacement, per-line dirty bits, and per-line owner
// attribution.
//
// Owner attribution is not part of the architectural state of any real
// cache — it exists so that (a) attack harnesses can introspect conflict
// patterns and (b) the partitioning invariant checkers of internal/prove
// can verify that no cache set colour ever holds lines of two different
// security domains when cache colouring is enabled (§4.1 of the paper).
//
// The flush operation reports the number of dirty lines written back; the
// flush *latency* is computed by the caller from that count, which is the
// history-dependent component that makes the flush itself a timing channel
// unless padded (§4.2).
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"timeprot/internal/hw"
)

// Indexing says which address the set index is computed from. A virtually
// indexed cache (typical L1) cannot be partitioned by page colouring,
// because the index bits come from the virtual address under the
// attacker's control; it must be flushed instead. A physically indexed
// cache (typical LLC) can be coloured (§4.1).
type Indexing int

const (
	// PhysIndexed caches compute the set from the physical address.
	PhysIndexed Indexing = iota
	// VirtIndexed caches compute the set from the virtual address
	// (tags remain physical).
	VirtIndexed
)

// String implements fmt.Stringer.
func (i Indexing) String() string {
	switch i {
	case PhysIndexed:
		return "phys-indexed"
	case VirtIndexed:
		return "virt-indexed"
	default:
		return fmt.Sprintf("Indexing(%d)", int(i))
	}
}

// Config describes a cache's geometry.
type Config struct {
	// Name identifies the cache in traces and error messages.
	Name string
	// Sets is the number of cache sets; must be a power of two.
	Sets int
	// Ways is the associativity.
	Ways int
	// Indexing selects virtual or physical set indexing.
	Indexing Indexing
}

// Validate reports an error if the geometry is unusable.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: Sets must be a positive power of two, got %d", c.Name, c.Sets)
	}
	if c.Ways <= 0 || c.Ways > 64 {
		return fmt.Errorf("cache %s: Ways must be in [1,64] (the width of a way mask), got %d", c.Name, c.Ways)
	}
	return nil
}

// SizeBytes returns the capacity of the cache in bytes.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * hw.LineSize }

// Colors returns the number of page colours this cache induces: the number
// of distinct values the set-index bits above the page offset can take.
// For caches whose sets fit within a page (Sets*LineSize <= PageSize) this
// is 1: every page maps to all sets and colouring cannot partition it.
func (c Config) Colors() int {
	colors := c.Sets * hw.LineSize / hw.PageSize
	if colors < 1 {
		return 1
	}
	return colors
}

// Stats accumulates access statistics.
type Stats struct {
	Hits         uint64
	Misses       uint64
	Evictions    uint64
	Writebacks   uint64
	Flushes      uint64
	FlushedDirty uint64
}

// Cache is a set-associative cache. It is not safe for concurrent use;
// the simulator serialises all hardware access through its event loop.
//
// Line state is kept as one valid and one dirty way mask per set, with
// tags, LRU stamps and owners in flat arrays indexed set*ways+way. The
// tag, LRU stamp and owner of an invalid way are never read, so
// invalidating a line or the whole cache only clears mask bits. The
// dirty mask is always a subset of the valid mask.
type Cache struct {
	cfg   Config
	full  uint64   // way mask with all Ways bits set
	valid []uint64 // [set] way mask of valid lines
	dirty []uint64 // [set] way mask of dirty lines
	tags  []uint64 // [set*ways + way]
	// lru holds monotonically increasing use stamps; the smallest
	// stamp among a set's valid ways is the LRU victim.
	lru   []uint64
	owner []hw.DomainID
	clock uint64 // LRU stamp source
	stats Stats
}

// New constructs a cache with the given geometry. It panics if the
// geometry is invalid, since geometry is always a compile-time decision
// of the experiment configuration.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets * cfg.Ways
	return &Cache{
		cfg:   cfg,
		full:  ^uint64(0) >> uint(64-cfg.Ways),
		valid: make([]uint64, cfg.Sets),
		dirty: make([]uint64, cfg.Sets),
		tags:  make([]uint64, n),
		lru:   make([]uint64, n),
		owner: make([]hw.DomainID, n),
	}
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset restores the cache to its freshly constructed state: every line
// invalid, the LRU clock and all statistics zero. It exists for machine
// pooling — a Reset cache is indistinguishable from New(cfg), so reusing
// one across experiment cells cannot change a measurement. Only the way
// masks are cleared: the fields of an invalid way are never read.
func (c *Cache) Reset() {
	clear(c.valid)
	clear(c.dirty)
	c.clock = 0
	c.stats = Stats{}
}

// SetIndex computes the set index for a global line number (an address
// right-shifted by LineBits). The caller chooses whether the line number
// came from a virtual or physical address according to cfg.Indexing.
func (c *Cache) SetIndex(lineNum uint64) int {
	return int(lineNum & uint64(c.cfg.Sets-1))
}

// AccessResult describes the outcome of a cache access. It is returned
// on every simulated memory access, so it keeps to the shape the Go
// compiler can hold in registers (see TestAccessResultShape).
type AccessResult struct {
	// Hit is true if the line was present.
	Hit bool
	// Evicted is true if a valid line was displaced by the fill.
	Evicted bool
	// WritebackVictim is true if a dirty line was evicted to make room.
	WritebackVictim bool
	// Victim identifies the displaced line.
	Victim
}

// Victim identifies the line a fill displaced.
type Victim struct {
	// VictimOwner is the owner of the evicted line, if any.
	VictimOwner hw.DomainID
	// VictimTag is the tag of the evicted line, if any.
	VictimTag uint64
}

// Access looks up the line identified by (set, tag); on a miss it fills
// the line, evicting the LRU victim. write marks the line dirty; owner
// attributes the fill. The returned result says whether it hit and whether
// a dirty victim needs writing back.
func (c *Cache) Access(set int, tag uint64, write bool, owner hw.DomainID) AccessResult {
	ways := c.cfg.Ways
	base := set * ways
	valid := c.valid[set]
	c.clock++
	// Hit path: scan the set's tags, then check the valid bit. The loop
	// repeats find's rather than calling it, which measured slower on
	// BenchmarkCacheAccess even inlined. Ownership is left unchanged: a
	// hit by another domain on a shared line (e.g. shared kernel text)
	// is precisely the sharing the paper warns about; keeping the
	// original owner lets the partition checker see the cross-domain hit.
	for w := 0; w < ways; w++ {
		if c.tags[base+w] == tag && valid&wayBit(w) != 0 {
			c.lru[base+w] = c.clock
			if write {
				c.dirty[set] |= wayBit(w)
			}
			c.stats.Hits++
			return AccessResult{Hit: true}
		}
	}
	return c.fill(set, tag, write, owner)
}

// wayBit returns way w's bit in a way mask. Masking the shift count
// tells the compiler it is below 64, which drops the over-shift guard.
func wayBit(w int) uint64 { return 1 << (uint(w) & 63) }

// fill handles a miss: it fills the first invalid way, or else the first
// way with the smallest LRU stamp. It is kept out of Access so that the
// hit loop's registers are not spilled around it.
func (c *Cache) fill(set int, tag uint64, write bool, owner hw.DomainID) AccessResult {
	var res AccessResult
	c.stats.Misses++
	ways := c.cfg.Ways
	base := set * ways
	tags := c.tags[base : base+ways]
	lru := c.lru[base : base+ways]
	owners := c.owner[base : base+ways]
	valid, dirty := c.valid[set], c.dirty[set]
	var victim int
	if free := ^valid & c.full; free != 0 {
		victim = bits.TrailingZeros64(free)
		res.VictimOwner = hw.NoOwner
	} else {
		oldest := lru[0]
		for w := 1; w < len(lru); w++ {
			if lru[w] < oldest {
				oldest, victim = lru[w], w
			}
		}
		c.stats.Evictions++
		res.Evicted = true
		if dirty&wayBit(victim) != 0 {
			c.stats.Writebacks++
			res.WritebackVictim = true
		}
		res.VictimOwner = owners[victim]
		res.VictimTag = tags[victim]
	}
	bit := wayBit(victim)
	c.valid[set] = valid | bit
	if write {
		c.dirty[set] = dirty | bit
	} else {
		c.dirty[set] = dirty &^ bit
	}
	tags[victim], lru[victim], owners[victim] = tag, c.clock, owner
	return res
}

// find returns the way holding the valid line (set, tag), or -1. It
// scans the set's tags and checks the valid bit only on a tag match.
func (c *Cache) find(set int, tag uint64) int {
	ways := c.cfg.Ways
	base := set * ways
	valid := c.valid[set]
	for w := 0; w < ways; w++ {
		if c.tags[base+w] == tag && valid&wayBit(w) != 0 {
			return w
		}
	}
	return -1
}

// Invalidate drops the line (set, tag) if present, reporting whether it
// was found and whether it was dirty. Used for the back-invalidation an
// inclusive LLC performs on its private caches when it evicts a line —
// the mechanism that makes cross-core LLC prime-and-probe observable.
func (c *Cache) Invalidate(set int, tag uint64) (found, dirty bool) {
	w := c.find(set, tag)
	if w < 0 {
		return false, false
	}
	bit := wayBit(w)
	dirty = c.dirty[set]&bit != 0
	c.valid[set] &^= bit
	c.dirty[set] &^= bit
	return true, dirty
}

// Probe reports whether (set, tag) is present without disturbing any
// state. Attack harnesses must NOT use this — it exists for tests and for
// the invariant checkers.
func (c *Cache) Probe(set int, tag uint64) bool { return c.find(set, tag) >= 0 }

// FlushAll invalidates every line and returns the number of dirty lines
// that had to be written back. The caller converts that count into flush
// latency; the count's dependence on execution history is the secondary
// timing channel that padding closes (§4.2).
func (c *Cache) FlushAll() (dirty int) {
	dirty = c.DirtyCount()
	clear(c.valid)
	clear(c.dirty)
	c.stats.Flushes++
	c.stats.FlushedDirty += uint64(dirty)
	return dirty
}

// DirtyLines returns the tags of all dirty lines in a deterministic
// (set-major, way-minor) order. The CPU model stores full line numbers as
// tags, so the result identifies the lines to write back on a flush.
func (c *Cache) DirtyLines() []uint64 {
	var out []uint64
	for set, m := range c.dirty {
		base := set * c.cfg.Ways
		for ; m != 0; m &= m - 1 {
			out = append(out, c.tags[base+bits.TrailingZeros64(m)])
		}
	}
	return out
}

// DirtyCount returns the number of dirty lines currently held.
func (c *Cache) DirtyCount() int { return popCount(c.dirty) }

// ValidCount returns the number of valid lines currently held.
func (c *Cache) ValidCount() int { return popCount(c.valid) }

func popCount(masks []uint64) int {
	n := 0
	for _, m := range masks {
		n += bits.OnesCount64(m)
	}
	return n
}

// OwnersInSet returns the distinct owners of valid lines in a set, in way
// order. Used by the partitioning invariant checker.
func (c *Cache) OwnersInSet(set int) []hw.DomainID {
	base := set * c.cfg.Ways
	var owners []hw.DomainID
	for m := c.valid[set]; m != 0; m &= m - 1 {
		if o := c.owner[base+bits.TrailingZeros64(m)]; !slices.Contains(owners, o) {
			owners = append(owners, o)
		}
	}
	return owners
}

// OccupancyByOwner returns, for each owner, the number of valid lines it
// holds across the whole cache.
func (c *Cache) OccupancyByOwner() map[hw.DomainID]int {
	occ := make(map[hw.DomainID]int)
	for set, m := range c.valid {
		base := set * c.cfg.Ways
		for ; m != 0; m &= m - 1 {
			occ[c.owner[base+bits.TrailingZeros64(m)]]++
		}
	}
	return occ
}

// SetColor returns the page colour a set belongs to: sets within the same
// page-offset window share a colour.
func (c *Cache) SetColor(set int) int {
	return set / (hw.PageSize / hw.LineSize) % c.Config().Colors()
}
