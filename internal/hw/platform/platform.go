// Package platform assembles the full machine: cores (optionally with
// SMT hardware threads), the shared LLC, the memory bus, physical memory,
// and the interrupt controller.
package platform

import (
	"fmt"

	"timeprot/internal/hw"
	"timeprot/internal/hw/cache"
	"timeprot/internal/hw/cover"
	"timeprot/internal/hw/cpu"
	"timeprot/internal/hw/interconn"
	"timeprot/internal/hw/mem"
)

// Config sizes the machine.
type Config struct {
	// Cores is the number of physical cores.
	Cores int
	// SMTWays is the number of hardware threads per core (1 = SMT
	// off). SMT siblings share all core-local state including the
	// cycle clock — the structural reason SMT co-residency of distinct
	// domains cannot be secured (§4.1).
	SMTWays int
	// LLCSets/LLCWays size the shared last-level cache.
	LLCSets, LLCWays int
	// Frames is the number of physical memory frames.
	Frames int
	// IRQLines is the number of interrupt lines.
	IRQLines int
	// Core configures the per-core private microarchitecture; its ID
	// field is overwritten per core.
	Core cpu.Config
	// Lat is the latency parameter set.
	Lat hw.Latency
}

// DefaultConfig returns a 2-core machine with a 4 MiB 16-way LLC (64 page
// colours), 16k frames (64 MiB), and 8 IRQ lines.
func DefaultConfig() Config {
	return Config{
		Cores:    2,
		SMTWays:  1,
		LLCSets:  4096,
		LLCWays:  16,
		Frames:   16384,
		IRQLines: 8,
		Core:     cpu.DefaultConfig(0),
		Lat:      hw.DefaultLatency(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("platform: Cores must be positive, got %d", c.Cores)
	}
	if c.SMTWays < 1 || c.SMTWays > 2 {
		return fmt.Errorf("platform: SMTWays must be 1 or 2, got %d", c.SMTWays)
	}
	if c.IRQLines <= 0 {
		return fmt.Errorf("platform: IRQLines must be positive, got %d", c.IRQLines)
	}
	if err := c.Lat.Validate(); err != nil {
		return err
	}
	return (cache.Config{Name: "LLC", Sets: c.LLCSets, Ways: c.LLCWays}).Validate()
}

// Machine is the assembled hardware platform.
type Machine struct {
	cfg Config

	Cores []*cpu.Core
	LLC   *cache.Cache
	Bus   *interconn.Bus
	Mem   *mem.PhysMem
	Alloc *mem.Allocator
	IRQ   *IRQController

	// CPUs are the logical processors the kernel schedules on; with
	// SMT there are Cores*SMTWays of them.
	CPUs []*LogicalCPU
}

// LogicalCPU is a hardware thread: the kernel's schedulable processor.
// SMT siblings share the same *cpu.Core.
type LogicalCPU struct {
	// Index is the logical CPU number.
	Index int
	// Core is the physical core backing this hardware thread.
	Core *cpu.Core
	// Slot is the hardware-thread slot within the core.
	Slot int
}

// Sibling reports whether two logical CPUs share a physical core.
func (l *LogicalCPU) Sibling(o *LogicalCPU) bool {
	return l != o && l.Core == o.Core
}

// New assembles a machine. It panics on invalid configuration (machine
// geometry is an experiment-construction decision, not runtime input).
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	llc := cache.New(cache.Config{Name: "LLC", Sets: cfg.LLCSets, Ways: cfg.LLCWays, Indexing: cache.PhysIndexed})
	physMem := mem.NewPhysMem(cfg.Frames, llc.Config().Colors())
	un := &cpu.Uncore{
		LLC: llc,
		Bus: interconn.NewBus(cfg.Lat.BusBeat),
		Mem: physMem,
		Lat: cfg.Lat,
	}
	m := &Machine{
		cfg:   cfg,
		LLC:   llc,
		Bus:   un.Bus,
		Mem:   physMem,
		Alloc: mem.NewAllocator(physMem),
		IRQ:   NewIRQController(cfg.IRQLines, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		coreCfg := cfg.Core
		coreCfg.ID = i
		core := cpu.New(coreCfg, un)
		m.Cores = append(m.Cores, core)
		for s := 0; s < cfg.SMTWays; s++ {
			m.CPUs = append(m.CPUs, &LogicalCPU{Index: len(m.CPUs), Core: core, Slot: s})
		}
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Reset restores the machine to its freshly constructed state so it can
// be reused for another experiment cell without rebuilding: all caches
// and core-local state, the bus (including removal of any installed
// limiter or TDM schedule — a fresh bus has neither), memory ownership,
// the frame allocator, and the interrupt controller. The structural
// objects (cores, logical CPUs, uncore wiring) are retained; only their
// state is rewound. A Reset machine must be indistinguishable from
// New(cfg) to every measurement — that equivalence is what makes machine
// pooling invisible to the sweep store's byte-identical outputs.
func (m *Machine) Reset() {
	m.LLC.Reset()
	m.Bus.SetLimiter(nil)
	m.Bus.SetTDM(nil)
	m.Bus.Reset()
	m.Alloc.Reset() // also resets Mem's frame ownership
	m.IRQ.Reset()
	for _, c := range m.Cores {
		c.Reset()
	}
}

// SetCoverage attaches cov to every core's transition recorder (nil
// detaches). Coverage is observation only — it never changes a measured
// cycle — and Reset detaches any attached map, so pooled machines cannot
// leak one run's observer into the next.
func (m *Machine) SetCoverage(cov *cover.Map) {
	for _, c := range m.Cores {
		c.Cov = cov
	}
}

// Colors returns the number of LLC page colours.
func (m *Machine) Colors() int { return m.Mem.NumColors() }

// IRQController models a simple interrupt controller: one-shot device
// timers raise lines at programmed cycle counts; per-core mask bits
// decide whether a pending line is visible to a core. Masked pending
// interrupts stay pending — the partitioning mechanism of §4.2 relies on
// this: IRQs of inactive domains are masked and delivered only once
// their domain runs again.
type IRQController struct {
	lines   int
	pending []bool
	// npending counts the set entries of pending, so the per-operation
	// poll can return at once when nothing is pending.
	npending int
	// raisedAt records when a pending line fired, for latency traces.
	raisedAt []uint64
	// masked[core][line]
	masked [][]bool
	// timers are programmed one-shot device events.
	timers []deviceTimer
}

type deviceTimer struct {
	line   int
	fireAt uint64
}

// NewIRQController builds a controller with lines interrupt lines and
// per-core masks for cores cores. All lines start masked on all cores.
func NewIRQController(lines, cores int) *IRQController {
	c := &IRQController{
		lines:    lines,
		pending:  make([]bool, lines),
		raisedAt: make([]uint64, lines),
		masked:   make([][]bool, cores),
	}
	for i := range c.masked {
		c.masked[i] = make([]bool, lines)
		for l := range c.masked[i] {
			c.masked[i][l] = true
		}
	}
	return c
}

// Lines returns the number of interrupt lines.
func (c *IRQController) Lines() int { return c.lines }

// Reset restores the controller to its freshly constructed state: no
// pending lines, all lines masked on every core, no programmed timers.
func (c *IRQController) Reset() {
	for l := 0; l < c.lines; l++ {
		c.pending[l] = false
		c.raisedAt[l] = 0
	}
	c.npending = 0
	for i := range c.masked {
		for l := range c.masked[i] {
			c.masked[i][l] = true
		}
	}
	c.timers = c.timers[:0]
}

// Program arms a one-shot device timer raising line at cycle fireAt.
// This is how a Trojan schedules an I/O completion interrupt (§4.2).
func (c *IRQController) Program(line int, fireAt uint64) error {
	if line < 0 || line >= c.lines {
		return fmt.Errorf("platform: IRQ line %d out of range [0,%d)", line, c.lines)
	}
	c.timers = append(c.timers, deviceTimer{line: line, fireAt: fireAt})
	return nil
}

// Tick raises all device timers that have fired by now.
func (c *IRQController) Tick(now uint64) {
	if len(c.timers) == 0 {
		return
	}
	kept := c.timers[:0]
	for _, t := range c.timers {
		if t.fireAt <= now {
			if !c.pending[t.line] {
				c.pending[t.line] = true
				c.raisedAt[t.line] = t.fireAt
				c.npending++
			}
		} else {
			kept = append(kept, t)
		}
	}
	c.timers = kept
}

// SetMask sets whether line is masked on core.
func (c *IRQController) SetMask(core, line int, masked bool) {
	c.masked[core][line] = masked
}

// Masked reports whether line is masked on core.
func (c *IRQController) Masked(core, line int) bool { return c.masked[core][line] }

// PendingUnmasked returns the lowest pending line unmasked on core, or
// -1. The caller should Tick first.
func (c *IRQController) PendingUnmasked(core int) int {
	if c.npending == 0 {
		return -1
	}
	for l := 0; l < c.lines; l++ {
		if c.pending[l] && !c.masked[core][l] {
			return l
		}
	}
	return -1
}

// Pending reports whether line is pending (masked or not).
func (c *IRQController) Pending(line int) bool { return c.pending[line] }

// RaisedAt returns when a pending line fired.
func (c *IRQController) RaisedAt(line int) uint64 { return c.raisedAt[line] }

// Ack clears a pending line (end-of-interrupt).
func (c *IRQController) Ack(line int) {
	if c.pending[line] {
		c.pending[line] = false
		c.npending--
	}
}

// NextTimerAt returns the earliest programmed timer expiry strictly after
// now, or 0,false if none. The idle loop uses it to skip quiet time.
func (c *IRQController) NextTimerAt(now uint64) (uint64, bool) {
	var best uint64
	found := false
	for _, t := range c.timers {
		if t.fireAt > now && (!found || t.fireAt < best) {
			best = t.fireAt
			found = true
		}
	}
	return best, found
}
