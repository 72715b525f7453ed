package platform

import (
	"testing"

	"timeprot/internal/hw/cpu"
)

func TestDefaultMachineShape(t *testing.T) {
	m := New(DefaultConfig())
	if len(m.Cores) != 2 || len(m.CPUs) != 2 {
		t.Fatalf("cores=%d cpus=%d", len(m.Cores), len(m.CPUs))
	}
	if m.Colors() != 64 {
		t.Fatalf("colors = %d, want 64", m.Colors())
	}
	if m.Cores[0].Uncore() != m.Cores[1].Uncore() {
		t.Fatal("cores must share the uncore")
	}
	if m.Cores[0].ID() == m.Cores[1].ID() {
		t.Fatal("core IDs must differ")
	}
}

func TestSMTTopology(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SMTWays = 2
	m := New(cfg)
	if len(m.CPUs) != 4 {
		t.Fatalf("logical cpus = %d, want 4", len(m.CPUs))
	}
	if !m.CPUs[0].Sibling(m.CPUs[1]) {
		t.Fatal("cpu0 and cpu1 must be SMT siblings")
	}
	if m.CPUs[0].Sibling(m.CPUs[2]) {
		t.Fatal("cpu0 and cpu2 are on different cores")
	}
	if m.CPUs[0].Sibling(m.CPUs[0]) {
		t.Fatal("a cpu is not its own sibling")
	}
	// SMT siblings share the physical core (and thus all flushable
	// state and the clock).
	if m.CPUs[0].Core != m.CPUs[1].Core {
		t.Fatal("siblings must share the core")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.SMTWays = 3 },
		func(c *Config) { c.IRQLines = 0 },
		func(c *Config) { c.LLCSets = 100 },
		func(c *Config) { c.LLCWays = 65 }, // wider than the LLC's way mask
		func(c *Config) { c.Lat.L1Hit = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config passed validation", i)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New with invalid config must panic")
			}
		}()
		cfg := DefaultConfig()
		cfg.Cores = -1
		New(cfg)
	}()
}

func TestIRQProgramAndDelivery(t *testing.T) {
	c := NewIRQController(4, 1)
	if err := c.Program(2, 1000); err != nil {
		t.Fatal(err)
	}
	c.Tick(999)
	if c.Pending(2) {
		t.Fatal("timer must not fire early")
	}
	c.Tick(1000)
	if !c.Pending(2) {
		t.Fatal("timer must fire at its programmed time")
	}
	// Masked: invisible to the core, still pending.
	if got := c.PendingUnmasked(0); got != -1 {
		t.Fatalf("masked line visible: %d", got)
	}
	c.SetMask(0, 2, false)
	if got := c.PendingUnmasked(0); got != 2 {
		t.Fatalf("unmasked pending = %d, want 2", got)
	}
	if c.RaisedAt(2) != 1000 {
		t.Fatalf("raisedAt = %d", c.RaisedAt(2))
	}
	c.Ack(2)
	if c.Pending(2) {
		t.Fatal("ack must clear pending")
	}
}

func TestIRQMaskedStaysPendingAcrossMaskToggle(t *testing.T) {
	// The §4.2 partitioning behaviour: an IRQ firing while its domain
	// is inactive (masked) is delivered only when unmasked later.
	c := NewIRQController(2, 1)
	if err := c.Program(0, 50); err != nil {
		t.Fatal(err)
	}
	c.Tick(100)
	if got := c.PendingUnmasked(0); got != -1 {
		t.Fatal("masked IRQ delivered")
	}
	c.SetMask(0, 0, false) // domain switch: unmask
	if got := c.PendingUnmasked(0); got != 0 {
		t.Fatal("pended IRQ lost across mask toggle")
	}
}

// TestIRQPendingCount checks the pending count behind PendingUnmasked's
// early return through repeated raises, double acks and Reset.
func TestIRQPendingCount(t *testing.T) {
	c := NewIRQController(4, 1)
	for l := 0; l < 4; l++ {
		c.SetMask(0, l, false)
	}
	_ = c.Program(1, 10)
	_ = c.Program(1, 20) // already pending when it fires: not counted twice
	_ = c.Program(3, 20)
	c.Tick(20)
	c.Ack(1)
	c.Ack(1)
	if got := c.PendingUnmasked(0); got != 3 {
		t.Fatalf("after acking line 1: PendingUnmasked = %d, want 3", got)
	}
	c.Ack(3)
	if got := c.PendingUnmasked(0); got != -1 {
		t.Fatalf("after acking every line: PendingUnmasked = %d, want -1", got)
	}
	_ = c.Program(2, 30)
	c.Tick(30)
	c.Reset()
	c.SetMask(0, 0, false)
	_ = c.Program(0, 40)
	c.Tick(40)
	if got := c.PendingUnmasked(0); got != 0 {
		t.Fatalf("after Reset: PendingUnmasked = %d, want 0", got)
	}
}

func TestIRQProgramOutOfRange(t *testing.T) {
	c := NewIRQController(2, 1)
	if err := c.Program(5, 10); err == nil {
		t.Fatal("out-of-range line must error")
	}
}

func TestNextTimerAt(t *testing.T) {
	c := NewIRQController(4, 1)
	_ = c.Program(0, 500)
	_ = c.Program(1, 300)
	at, ok := c.NextTimerAt(100)
	if !ok || at != 300 {
		t.Fatalf("NextTimerAt = (%d,%v), want (300,true)", at, ok)
	}
	at, ok = c.NextTimerAt(300)
	if !ok || at != 500 {
		t.Fatalf("NextTimerAt = (%d,%v), want (500,true)", at, ok)
	}
	if _, ok := c.NextTimerAt(500); ok {
		t.Fatal("no timers after 500")
	}
}

func TestPerCoreMasksAreIndependent(t *testing.T) {
	c := NewIRQController(2, 2)
	_ = c.Program(1, 10)
	c.Tick(10)
	c.SetMask(0, 1, false)
	if c.PendingUnmasked(0) != 1 {
		t.Fatal("core 0 should see line 1")
	}
	if c.PendingUnmasked(1) != -1 {
		t.Fatal("core 1 must not see line 1 (still masked)")
	}
}

func TestMachineUsesConfiguredCoreGeometry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Core = cpu.Config{
		L1ISets: 32, L1IWays: 4, L1DSets: 32, L1DWays: 4,
		L2Sets: 128, L2Ways: 4, TLBEntries: 16, BPEntries: 64,
		PrefetchThreshold: 0,
	}
	m := New(cfg)
	if m.Cores[0].L1D.Config().Sets != 32 {
		t.Fatal("core geometry not applied")
	}
	if m.Cores[0].PF != nil {
		t.Fatal("prefetcher should be disabled at threshold 0")
	}
	if m.Cores[1].ID() != 1 {
		t.Fatal("core ID must be overwritten per core")
	}
}
