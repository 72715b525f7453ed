package absmodel

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Domains = 1 },
		func(c *Config) { c.StepsPerSlice = 0 },
		func(c *Config) { c.Slices = 1 },
		func(c *Config) { c.Alphabet = 1 },
		func(c *Config) { c.DigestMod = 1 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestFuncsDeterministicAndBounded(t *testing.T) {
	f := SampleFuncs(7, 8)
	g := SampleFuncs(7, 8)
	h := SampleFuncs(8, 8)
	sawDiff := false
	for d := uint64(0); d < 8; d++ {
		for in := uint64(0); in < 8; in++ {
			if f.Update(d, in) != g.Update(d, in) {
				t.Fatal("same seed must give same function")
			}
			if f.Update(d, in) >= 8 {
				t.Fatal("update must stay in the digest domain")
			}
			if f.Update(d, in) != h.Update(d, in) {
				sawDiff = true
			}
		}
	}
	if !sawDiff {
		t.Fatal("different seeds should give different functions")
	}
	if dt := f.Time(1, 2, 3); dt < 1 || dt > 16 {
		t.Fatalf("time out of range: %d", dt)
	}
	if l := f.FlushLat(3); l < 1 || l > 32 {
		t.Fatalf("flush latency out of range: %d", l)
	}
}

func TestStepDeterminism(t *testing.T) {
	f := func(seed uint64, acts []uint8) bool {
		cfg := DefaultConfig()
		m := NewMachine(cfg, SampleFuncs(seed, cfg.DigestMod))
		run := func() uint64 {
			s := m.Reset()
			for _, a := range acts {
				act := Action(int(a) % cfg.Alphabet)
				switch a % 5 {
				case 3:
					act = ActSyscall
				case 4:
					act = ActStartIO
				}
				m.Step(s, act)
			}
			m.EndSlice(s)
			return s.Clock ^ s.Flushables[ResL1] ^ s.LLCBanks[0]
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFlushResetsFlushables(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMachine(cfg, SampleFuncs(3, cfg.DigestMod))
	s := m.Reset()
	for i := 0; i < 5; i++ {
		m.Step(s, Action(1))
	}
	if s.Flushables[ResL1] == 0 && s.Flushables[ResBP] == 0 {
		t.Skip("degenerate family: digests stayed zero")
	}
	m.EndSlice(s)
	if s.Flushables != [NumFlushables]uint64{} {
		t.Fatalf("flushables not reset: %v", s.Flushables)
	}
}

func TestNoFlushKeepsState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Flush = false
	m := NewMachine(cfg, SampleFuncs(3, cfg.DigestMod))
	s := m.Reset()
	for i := 0; i < 5; i++ {
		m.Step(s, Action(1))
	}
	before := s.Flushables
	m.EndSlice(s)
	if s.Flushables != before {
		t.Fatalf("unflushed state changed across switch: %v -> %v", before, s.Flushables)
	}
}

func TestPaddedDispatchConstant(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMachine(cfg, SampleFuncs(5, cfg.DigestMod))
	// Two different Hi behaviours; dispatch time must be identical.
	dispatch := func(act Action) uint64 {
		s := m.Reset()
		for i := 0; i < cfg.StepsPerSlice; i++ {
			m.Step(s, act)
		}
		return m.EndSlice(s).Dispatch
	}
	if d0, d1 := dispatch(Action(0)), dispatch(Action(1)); d0 != d1 {
		t.Fatalf("padded dispatch differs: %d vs %d", d0, d1)
	}
	if d0, dS := dispatch(Action(0)), dispatch(ActSyscall); d0 != dS {
		t.Fatalf("padded dispatch differs vs syscall: %d vs %d", d0, dS)
	}
}

func TestUnpaddedDispatchVaries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pad = false
	m := NewMachine(cfg, SampleFuncs(5, cfg.DigestMod))
	seen := make(map[uint64]bool)
	for _, act := range []Action{0, 1, ActSyscall} {
		s := m.Reset()
		for i := 0; i < cfg.StepsPerSlice; i++ {
			m.Step(s, act)
		}
		seen[m.EndSlice(s).Dispatch] = true
	}
	if len(seen) < 2 {
		t.Fatalf("unpadded dispatch should vary, got %v", seen)
	}
}

func TestColorPartitionsLLC(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMachine(cfg, SampleFuncs(9, cfg.DigestMod))
	s := m.Reset()
	m.Step(s, Action(1)) // Hi access
	if s.LLCBanks[1] != 0 {
		t.Fatal("Hi access polluted Lo's colour bank")
	}
	if s.LLCShared != 0 {
		t.Fatal("coloured config must not touch the shared digest")
	}
	cfg.Color = false
	m2 := NewMachine(cfg, SampleFuncs(9, cfg.DigestMod))
	s2 := m2.Reset()
	m2.Step(s2, Action(1))
	if s2.LLCShared == 0 {
		t.Skip("degenerate family: update fixed zero")
	}
}

func TestIRQPartitioningDefersDelivery(t *testing.T) {
	run := func(partition bool) (irqDuringLo bool) {
		cfg := DefaultConfig()
		cfg.PartitionIRQ = partition
		m := NewMachine(cfg, SampleFuncs(11, cfg.DigestMod))
		s := m.Reset()
		m.Step(s, ActStartIO) // Hi programs its device
		for i := 1; i < cfg.StepsPerSlice; i++ {
			m.Step(s, Action(0))
		}
		m.EndSlice(s) // -> Lo
		for i := 0; i < cfg.StepsPerSlice; i++ {
			if m.Step(s, Action(0)).IRQDelivered {
				irqDuringLo = true
			}
		}
		return irqDuringLo
	}
	if !run(false) {
		t.Fatal("unpartitioned IRQ must interrupt Lo")
	}
	if run(true) {
		t.Fatal("partitioned IRQ must stay masked during Lo")
	}
}

func TestPendingIRQsAccessor(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMachine(cfg, SampleFuncs(13, cfg.DigestMod))
	s := m.Reset()
	m.Step(s, ActStartIO)
	irqs := s.PendingIRQs()
	if len(irqs) != 1 || irqs[0].Owner != 0 || irqs[0].FireAt == 0 {
		t.Fatalf("pending irqs = %+v", irqs)
	}
}

func TestCloneDeepCopies(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMachine(cfg, SampleFuncs(17, cfg.DigestMod))
	s := m.Reset()
	m.Step(s, ActStartIO)
	c := s.Clone()
	m.Step(s, Action(1))
	m.EndSlice(s)
	if c.Clock == s.Clock {
		t.Fatal("clone should not track the original")
	}
	if len(c.PendingIRQs()) != 1 {
		t.Fatal("clone lost pending IRQs")
	}
}

func TestSwitchWorkWithinPadBudget(t *testing.T) {
	// The default budget must cover the worst-case switch work for
	// every family and any flushable content — the assumption §5.2
	// makes explicit.
	cfg := DefaultConfig()
	for seed := uint64(0); seed < 50; seed++ {
		m := NewMachine(cfg, SampleFuncs(seed, cfg.DigestMod))
		for d := uint64(0); d < cfg.DigestMod; d++ {
			s := m.Reset()
			for i := range s.Flushables {
				s.Flushables[i] = d
			}
			rep := m.EndSlice(s)
			if rep.Overran {
				t.Fatalf("seed %d digest %d: pad budget overrun (work %d)", seed, d, rep.Work)
			}
		}
	}
}

func TestCopyFromReusesBuffers(t *testing.T) {
	cfg := DefaultConfig()
	m := NewMachine(cfg, SampleFuncs(19, cfg.DigestMod))
	src := m.Reset()
	m.Step(src, ActStartIO)
	m.Step(src, Action(1))
	dst := m.Reset()
	m.Step(dst, ActStartIO)
	m.Step(dst, ActStartIO) // two pending: CopyFrom must truncate
	dst.CopyFrom(src)
	if !reflect.DeepEqual(dst, src) {
		t.Fatalf("copy %+v differs from source %+v", dst, src)
	}
	m.Step(dst, Action(0))
	m.EndSlice(dst)
	if reflect.DeepEqual(dst, src) || len(src.PendingIRQs()) != 1 {
		t.Fatal("stepping the copy changed the source")
	}
	if n := testing.AllocsPerRun(100, func() { dst.CopyFrom(src) }); n != 0 {
		t.Fatalf("CopyFrom into a sized state allocates %v times", n)
	}
}
