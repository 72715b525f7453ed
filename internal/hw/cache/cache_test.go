package cache

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"timeprot/internal/hw"
	"timeprot/internal/rng"
)

func testCfg() Config {
	return Config{Name: "L1D", Sets: 64, Ways: 8, Indexing: VirtIndexed}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"ok", Config{Name: "c", Sets: 64, Ways: 8}, false},
		{"zero sets", Config{Name: "c", Sets: 0, Ways: 8}, true},
		{"non power of two", Config{Name: "c", Sets: 48, Ways: 8}, true},
		{"zero ways", Config{Name: "c", Sets: 64, Ways: 0}, true},
		{"64 ways", Config{Name: "c", Sets: 64, Ways: 64}, false},
		{"wider than a way mask", Config{Name: "c", Sets: 64, Ways: 65}, true},
		{"negative sets", Config{Name: "c", Sets: -64, Ways: 2}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{Name: "bad", Sets: 3, Ways: 1})
}

func TestSizeAndColors(t *testing.T) {
	llc := Config{Name: "LLC", Sets: 4096, Ways: 16, Indexing: PhysIndexed}
	if got, want := llc.SizeBytes(), 4096*16*hw.LineSize; got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
	// 4096 sets * 64B lines / 4KiB pages = 64 colours, the paper's
	// "modern last-level caches have at least 64 different colors".
	if got := llc.Colors(); got != 64 {
		t.Errorf("Colors = %d, want 64", got)
	}
	l1 := testCfg()
	if got := l1.Colors(); got != 1 {
		t.Errorf("L1 Colors = %d, want 1 (fits within a page, uncolourable)", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(testCfg())
	res := c.Access(3, 0x42, false, 1)
	if res.Hit {
		t.Fatal("first access should miss")
	}
	res = c.Access(3, 0x42, false, 1)
	if !res.Hit {
		t.Fatal("second access should hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := Config{Name: "tiny", Sets: 2, Ways: 2, Indexing: PhysIndexed}
	c := New(cfg)
	c.Access(0, 1, false, 1) // fills way 0
	c.Access(0, 2, false, 1) // fills way 1
	c.Access(0, 1, false, 1) // touch tag 1; tag 2 is now LRU
	res := c.Access(0, 3, false, 1)
	if res.Hit {
		t.Fatal("expected miss")
	}
	if res.VictimTag != 2 {
		t.Fatalf("evicted tag %d, want 2 (LRU)", res.VictimTag)
	}
	if !c.Probe(0, 1) || !c.Probe(0, 3) || c.Probe(0, 2) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	cfg := Config{Name: "tiny", Sets: 1, Ways: 1, Indexing: PhysIndexed}
	c := New(cfg)
	c.Access(0, 1, true, 1) // dirty fill
	res := c.Access(0, 2, false, 1)
	if !res.WritebackVictim {
		t.Fatal("evicting a dirty line must report a writeback")
	}
	if res.VictimOwner != 1 {
		t.Fatalf("victim owner = %d, want 1", res.VictimOwner)
	}
	res = c.Access(0, 3, false, 2)
	if res.WritebackVictim {
		t.Fatal("evicting a clean line must not report a writeback")
	}
}

func TestFlushAllCountsDirtyAndResets(t *testing.T) {
	c := New(testCfg())
	for i := 0; i < 10; i++ {
		c.Access(i, uint64(i), i%2 == 0, 1) // 5 dirty, 5 clean
	}
	if got := c.DirtyCount(); got != 5 {
		t.Fatalf("DirtyCount = %d, want 5", got)
	}
	dirty := c.FlushAll()
	if dirty != 5 {
		t.Fatalf("FlushAll returned %d dirty, want 5", dirty)
	}
	if c.ValidCount() != 0 {
		t.Fatal("flush must invalidate everything")
	}
	// After a flush the state must be history-independent: a second
	// flush reports zero dirty lines.
	if d := c.FlushAll(); d != 0 {
		t.Fatalf("second flush reported %d dirty lines, want 0", d)
	}
}

func TestOwnersInSetTracksDistinctOwners(t *testing.T) {
	c := New(testCfg())
	c.Access(7, 1, false, 1)
	c.Access(7, 2, false, 2)
	c.Access(7, 3, false, 2)
	owners := c.OwnersInSet(7)
	if len(owners) != 2 {
		t.Fatalf("owners = %v, want two distinct owners", owners)
	}
	occ := c.OccupancyByOwner()
	if occ[1] != 1 || occ[2] != 2 {
		t.Fatalf("occupancy = %v", occ)
	}
}

func TestSetIndexRange(t *testing.T) {
	c := New(testCfg())
	f := func(lineNum uint64) bool {
		set := c.SetIndex(lineNum)
		return set >= 0 && set < c.Config().Sets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetColorPartition(t *testing.T) {
	llc := New(Config{Name: "LLC", Sets: 4096, Ways: 16, Indexing: PhysIndexed})
	colors := llc.Config().Colors()
	// All lines of one page land in sets of a single colour, and that
	// colour is PFN mod colors.
	r := rng.New(7)
	for trial := 0; trial < 200; trial++ {
		pfn := r.Uint64n(1 << 20)
		want := int(pfn % uint64(colors))
		for l := uint64(0); l < hw.LinesPerPage; l++ {
			lineNum := pfn*hw.LinesPerPage + l
			set := llc.SetIndex(lineNum)
			if got := llc.SetColor(set); got != want {
				t.Fatalf("pfn %d line %d: colour %d, want %d", pfn, l, got, want)
			}
		}
	}
}

// TestConflictVisibility is the microarchitectural premise of
// prime-and-probe: after a victim touches a set, a prior occupant of that
// set observes a miss, and only in that set.
func TestConflictVisibility(t *testing.T) {
	cfg := Config{Name: "pp", Sets: 8, Ways: 2, Indexing: PhysIndexed}
	c := New(cfg)
	// Prime: attacker (domain 1) fills every way of every set.
	for set := 0; set < cfg.Sets; set++ {
		for w := 0; w < cfg.Ways; w++ {
			c.Access(set, uint64(100+w), false, 1)
		}
	}
	// Victim (domain 2) touches both ways of set 5 only.
	c.Access(5, 900, false, 2)
	c.Access(5, 901, false, 2)
	// Probe: attacker re-touches its lines; misses only in set 5.
	for set := 0; set < cfg.Sets; set++ {
		for w := 0; w < cfg.Ways; w++ {
			res := c.Access(set, uint64(100+w), false, 1)
			wantHit := set != 5
			if res.Hit != wantHit {
				t.Fatalf("set %d way %d: hit=%v, want %v", set, w, res.Hit, wantHit)
			}
		}
	}
}

// Property: flushing always leaves zero valid and zero dirty lines no
// matter the access history.
func TestFlushPropertyRandomHistory(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		c := New(testCfg())
		r := rng.New(seed)
		for i := 0; i < int(n%512); i++ {
			c.Access(r.Intn(c.Config().Sets), r.Uint64n(1<<20), r.Bool(), hw.DomainID(r.Intn(3)))
		}
		c.FlushAll()
		return c.ValidCount() == 0 && c.DirtyCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the number of writebacks reported by FlushAll equals the
// number of distinct dirty lines written.
func TestFlushDirtyCountMatchesWrites(t *testing.T) {
	f := func(seed uint64) bool {
		c := New(testCfg())
		r := rng.New(seed)
		written := make(map[[2]uint64]bool)
		for i := 0; i < 200; i++ {
			set := r.Intn(c.Config().Sets)
			tag := r.Uint64n(4) // small tag space to force evictions
			write := r.Bool()
			res := c.Access(set, tag, write, 1)
			key := [2]uint64{uint64(set), tag}
			if write {
				written[key] = true
			}
			if res.WritebackVictim {
				delete(written, [2]uint64{uint64(set), res.VictimTag})
			} else if !res.Hit && res.VictimOwner != hw.NoOwner {
				// clean eviction
				delete(written, [2]uint64{uint64(set), res.VictimTag})
			}
		}
		return c.FlushAll() == len(written)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAccessResultShape pins AccessResult to what the Go compiler keeps
// in registers: a struct of at most 4 fields (recursively) and at most 4
// words (ssa.MaxStruct and ssagen.TypeOK). A larger result is spilled to
// the stack on every access, and the byte-sized stores of its flags then
// stall the wide loads that copy it out.
func TestAccessResultShape(t *testing.T) {
	var r AccessResult
	if n := reflect.TypeOf(r).NumField(); n > 4 {
		t.Errorf("AccessResult has %d fields, want <= 4", n)
	}
	if sz := unsafe.Sizeof(r); sz > 32 {
		t.Errorf("AccessResult is %d bytes, want <= 32", sz)
	}
}

// refCache is the original line-struct cache, kept as the reference
// model the way-mask Cache is checked against: every line carries its
// own valid/dirty flags, and invalidation rewrites the whole line.
type refCache struct {
	cfg   Config
	sets  []refLine // flattened [set*ways + way]
	clock uint64
	stats Stats
}

type refLine struct {
	valid bool
	tag   uint64
	dirty bool
	owner hw.DomainID
	lru   uint64
}

func newRef(cfg Config) *refCache {
	c := &refCache{cfg: cfg, sets: make([]refLine, cfg.Sets*cfg.Ways)}
	c.Reset()
	return c
}

func (c *refCache) Reset() {
	for i := range c.sets {
		c.sets[i] = refLine{owner: hw.NoOwner}
	}
	c.clock = 0
	c.stats = Stats{}
}

func (c *refCache) Access(set int, tag uint64, write bool, owner hw.DomainID) AccessResult {
	var res AccessResult
	base := set * c.cfg.Ways
	c.clock++
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.sets[base+w]
		if ln.valid && ln.tag == tag {
			ln.lru = c.clock
			if write {
				ln.dirty = true
			}
			res.Hit = true
			c.stats.Hits++
			return res
		}
	}
	c.stats.Misses++
	victim := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.sets[base+w]
		if !ln.valid {
			victim = w
			break
		}
		if ln.lru < oldest {
			oldest = ln.lru
			victim = w
		}
	}
	ln := &c.sets[base+victim]
	if ln.valid {
		c.stats.Evictions++
		res.Evicted = true
		if ln.dirty {
			c.stats.Writebacks++
			res.WritebackVictim = true
		}
		res.VictimOwner = ln.owner
		res.VictimTag = ln.tag
	} else {
		res.VictimOwner = hw.NoOwner
	}
	*ln = refLine{valid: true, tag: tag, dirty: write, owner: owner, lru: c.clock}
	return res
}

func (c *refCache) Invalidate(set int, tag uint64) (found, dirty bool) {
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.sets[base+w]
		if ln.valid && ln.tag == tag {
			found, dirty = true, ln.dirty
			*ln = refLine{owner: hw.NoOwner}
			return found, dirty
		}
	}
	return false, false
}

func (c *refCache) Probe(set int, tag uint64) bool {
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if ln := &c.sets[base+w]; ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) FlushAll() (dirty int) {
	for i := range c.sets {
		if c.sets[i].valid && c.sets[i].dirty {
			dirty++
		}
		c.sets[i] = refLine{owner: hw.NoOwner}
	}
	c.stats.Flushes++
	c.stats.FlushedDirty += uint64(dirty)
	return dirty
}

func (c *refCache) DirtyLines() []uint64 {
	var out []uint64
	for _, ln := range c.sets {
		if ln.valid && ln.dirty {
			out = append(out, ln.tag)
		}
	}
	return out
}

func (c *refCache) DirtyCount() int { return len(c.DirtyLines()) }

func (c *refCache) ValidCount() int {
	n := 0
	for _, ln := range c.sets {
		if ln.valid {
			n++
		}
	}
	return n
}

func (c *refCache) OwnersInSet(set int) []hw.DomainID {
	base := set * c.cfg.Ways
	var owners []hw.DomainID
	seen := make(map[hw.DomainID]bool, 4)
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.sets[base+w]
		if ln.valid && !seen[ln.owner] {
			seen[ln.owner] = true
			owners = append(owners, ln.owner)
		}
	}
	return owners
}

func (c *refCache) OccupancyByOwner() map[hw.DomainID]int {
	occ := make(map[hw.DomainID]int)
	for _, ln := range c.sets {
		if ln.valid {
			occ[ln.owner]++
		}
	}
	return occ
}

// TestMatchesReferenceModel drives the way-mask Cache and the line-struct
// reference model with the same long seeded operation sequences and
// requires every result to be equal at every step. Tag spaces are a
// little larger than the associativity, so sets fill, evict and refill
// invalidated ways constantly.
func TestMatchesReferenceModel(t *testing.T) {
	geometries := []Config{
		{Name: "direct", Sets: 8, Ways: 1},
		{Name: "2way", Sets: 4, Ways: 2},
		{Name: "8way", Sets: 8, Ways: 8, Indexing: VirtIndexed},
		{Name: "16way", Sets: 4, Ways: 16},
		{Name: "64way", Sets: 2, Ways: 64},
	}
	owners := []hw.DomainID{hw.KernelOwner, 0, 1, 2}
	steps := 20000
	if testing.Short() {
		steps = 4000
	}
	for _, cfg := range geometries {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				got, want := New(cfg), newRef(cfg)
				r := rng.New(seed)
				tags := uint64(cfg.Ways + 1 + cfg.Ways/2)
				check := func(step int, op string, g, w any) {
					t.Helper()
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("step %d %s: got %+v, want %+v", step, op, g, w)
					}
				}
				// Flushes and resets come about every few times the
				// cache's capacity in operations, so sets fill first.
				wipe := cfg.Sets * cfg.Ways * 4
				var evictions, writebacks int
				for i := 0; i < steps; i++ {
					set := r.Intn(cfg.Sets)
					tag := r.Uint64n(tags)
					switch op := r.Intn(100); {
					case r.Intn(wipe) == 0:
						check(i, "FlushAll", got.FlushAll(), want.FlushAll())
					case r.Intn(wipe) == 0:
						got.Reset()
						want.Reset()
					case op < 70:
						write, owner := r.Intn(3) == 0, owners[r.Intn(len(owners))]
						res := got.Access(set, tag, write, owner)
						check(i, "Access", res, want.Access(set, tag, write, owner))
						if res.Evicted {
							evictions++
						}
						if res.WritebackVictim {
							writebacks++
						}
					case op < 80:
						gf, gd := got.Invalidate(set, tag)
						wf, wd := want.Invalidate(set, tag)
						check(i, "Invalidate", [2]bool{gf, gd}, [2]bool{wf, wd})
					case op < 88:
						check(i, "Probe", got.Probe(set, tag), want.Probe(set, tag))
					case op < 91:
						check(i, "DirtyLines", got.DirtyLines(), want.DirtyLines())
					case op < 93:
						check(i, "DirtyCount", got.DirtyCount(), want.DirtyCount())
					case op < 95:
						check(i, "ValidCount", got.ValidCount(), want.ValidCount())
					case op < 98:
						check(i, "OwnersInSet", got.OwnersInSet(set), want.OwnersInSet(set))
					default:
						check(i, "OccupancyByOwner", got.OccupancyByOwner(), want.OccupancyByOwner())
					}
					check(i, "Stats", got.Stats(), want.stats)
				}
				if evictions < steps/100 || writebacks == 0 {
					t.Fatalf("sequence too gentle: %d evictions, %d writebacks in %d steps", evictions, writebacks, steps)
				}
			})
		}
	}
}

// BenchmarkCacheAccess passes full line numbers as tags, as the CPU
// model does.
func BenchmarkCacheAccess(b *testing.B) {
	c := New(Config{Name: "LLC", Sets: 4096, Ways: 16, Indexing: PhysIndexed})
	r := rng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = r.Uint64n(1 << 22)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ln := addrs[i%len(addrs)]
		c.Access(c.SetIndex(ln), ln, i%7 == 0, 1)
	}
}
