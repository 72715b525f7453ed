// Package tlb implements an ASID-tagged, fully associative translation
// lookaside buffer with LRU replacement, modelled on the abstraction used
// by Syeda & Klein's ARM-style TLB logic (paper §5.3).
//
// The package exposes exactly the operations the kernel model needs —
// lookup, refill, per-ASID invalidation and full flush — and the
// introspection the prover needs to state the §5.3 partitioning theorem:
// page-table modifications (and the invalidations they require) under one
// ASID do not affect TLB consistency, contents, or hit/miss timing for
// any other ASID.
package tlb

import (
	"fmt"

	"timeprot/internal/hw"
)

// ASID identifies an address space. The kernel assigns one per domain
// (per-domain address spaces are what makes the §5.3 theorem stateable).
type ASID uint16

// Entry is one TLB entry.
type Entry struct {
	ASID   ASID
	VPN    uint64
	PFN    uint64
	Global bool // global entries match under any ASID (kernel mappings)
	valid  bool
	lru    uint64
}

// Valid reports whether the entry holds a live translation.
func (e Entry) Valid() bool { return e.valid }

// TLB is a fully associative, LRU-replaced translation cache. Not safe
// for concurrent use; the simulator serialises hardware access.
type TLB struct {
	entries []Entry
	clock   uint64
	stats   Stats
}

// Stats accumulates TLB statistics.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Refills     uint64
	FlushAlls   uint64
	FlushASIDs  uint64
	Invalidates uint64
}

// New constructs a TLB with size entries. It panics if size is not
// positive.
func New(size int) *TLB {
	if size <= 0 {
		panic(fmt.Sprintf("tlb: size must be positive, got %d", size))
	}
	return &TLB{entries: make([]Entry, size)}
}

// Size returns the TLB capacity in entries.
func (t *TLB) Size() int { return len(t.entries) }

// Stats returns a copy of the statistics.
func (t *TLB) Stats() Stats { return t.stats }

// Reset restores the TLB to its freshly constructed state: every entry
// invalid, the LRU clock and all statistics zero. Unlike FlushAll it
// also clears the clock and counters, so a pooled machine's TLB is
// indistinguishable from a new one.
func (t *TLB) Reset() {
	for i := range t.entries {
		t.entries[i] = Entry{}
	}
	t.clock = 0
	t.stats = Stats{}
}

// Lookup searches for a translation of vpn under asid. Global entries
// match regardless of ASID.
func (t *TLB) Lookup(asid ASID, vpn uint64) (pfn uint64, hit bool) {
	t.clock++
	for i := range t.entries {
		e := &t.entries[i]
		// VPN first: it rejects almost every entry on the first load.
		if e.VPN == vpn && e.valid && (e.Global || e.ASID == asid) {
			e.lru = t.clock
			t.stats.Hits++
			return e.PFN, true
		}
	}
	t.stats.Misses++
	return 0, false
}

// Refill inserts a translation after a page walk, evicting the LRU entry
// if the TLB is full.
func (t *TLB) Refill(asid ASID, vpn, pfn uint64, global bool) {
	t.clock++
	t.stats.Refills++
	victim := -1
	var oldest = ^uint64(0)
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			victim = i
			break
		}
		if e.lru < oldest {
			oldest = e.lru
			victim = i
		}
	}
	t.entries[victim] = Entry{ASID: asid, VPN: vpn, PFN: pfn, Global: global, valid: true, lru: t.clock}
}

// FlushAll invalidates every entry (including globals) and returns the
// number of entries dropped. TLB flushes write back nothing, so the
// latency is history-independent, but the *refill* cost afterwards is not
// — which is why the TLB is flushable state in the paper's taxonomy.
func (t *TLB) FlushAll() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
		t.entries[i] = Entry{}
	}
	t.stats.FlushAlls++
	return n
}

// FlushASID invalidates all non-global entries of one address space,
// returning the count dropped. This is the operation a kernel issues
// after modifying that address space's page table.
func (t *TLB) FlushASID(asid ASID) int {
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && !e.Global && e.ASID == asid {
			*e = Entry{}
			n++
		}
	}
	t.stats.FlushASIDs++
	return n
}

// InvalidateVPN drops a single (asid, vpn) translation if present.
func (t *TLB) InvalidateVPN(asid ASID, vpn uint64) bool {
	t.stats.Invalidates++
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && !e.Global && e.ASID == asid && e.VPN == vpn {
			*e = Entry{}
			return true
		}
	}
	return false
}

// Snapshot returns the valid entries belonging to asid (non-global),
// in a deterministic order. The prover uses snapshots to state that
// operations under other ASIDs leave an ASID's view unchanged.
func (t *TLB) Snapshot(asid ASID) []Entry {
	var out []Entry
	for i := range t.entries {
		e := t.entries[i]
		if e.valid && !e.Global && e.ASID == asid {
			e.lru = 0 // normalise: recency is not part of the view
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// GlobalSnapshot returns the valid global entries in deterministic order.
func (t *TLB) GlobalSnapshot() []Entry {
	var out []Entry
	for i := range t.entries {
		e := t.entries[i]
		if e.valid && e.Global {
			e.lru = 0
			out = append(out, e)
		}
	}
	sortEntries(out)
	return out
}

// OccupancyByASID counts valid non-global entries per ASID.
func (t *TLB) OccupancyByASID() map[ASID]int {
	occ := make(map[ASID]int)
	for i := range t.entries {
		if t.entries[i].valid && !t.entries[i].Global {
			occ[t.entries[i].ASID]++
		}
	}
	return occ
}

func sortEntries(es []Entry) {
	// insertion sort by (ASID, VPN); entry counts are tiny.
	for i := 1; i < len(es); i++ {
		for j := i; j > 0; j-- {
			a, b := es[j-1], es[j]
			if a.ASID < b.ASID || (a.ASID == b.ASID && a.VPN <= b.VPN) {
				break
			}
			es[j-1], es[j] = b, a
		}
	}
}

// ASIDForDomain derives the ASID the kernel assigns to a domain. Domain
// IDs are small non-negative integers; the kernel pseudo-owner maps to the
// reserved kernel ASID 0.
func ASIDForDomain(d hw.DomainID) ASID {
	if d < 0 {
		return 0
	}
	return ASID(d + 1)
}
