// Package absmodel implements the abstract hardware model of §5.1 of the
// paper: the microarchitectural state is a finite set of resources, each
// either PARTITIONABLE (per-domain banks: the physically indexed LLC
// under colouring, the kernel text under cloning) or FLUSHABLE
// (core-local time-shared state: L1, TLB, branch predictor, prefetcher),
// plus the always-shared-but-deterministically-accessed kernel global
// data of §5.2 Case 2a.
//
// Time advances by a DETERMINISTIC YET UNSPECIFIED function of the
// visible microarchitectural state: the model is parameterised by a
// function family sampled from a seed, and the provers in
// internal/prove/nonintf quantify over many sampled families. No claim
// ever depends on what the functions compute — only on WHICH state they
// are allowed to read, exactly the paper's argument that "we do not need
// to know how long an instruction will take to execute, only which
// micro-architectural state its execution time depends on".
//
// State digests live in a small modular domain so that bounded checks
// can enumerate exhaustively.
package absmodel

import (
	"fmt"

	"timeprot/internal/rng"
)

// ModelVersion is the abstract model's registered model-version string.
// It feeds the proof engine's prover fingerprint (every proof cell's
// store key embeds it): bump it on any change to the model's semantics —
// the resource taxonomy, the action set, what state each action may
// read or write, the switch protocol, or the sampled function families —
// and every cached proof cell automatically becomes stale. Pure
// refactors that provably preserve machine behaviour do not bump it.
//
// v2: device-completion interrupts fire a fixed delay after StartIO
// (inheriting the possibly secret-dependent programming time) and
// delivery latency is a function of the fire time, so a victim's
// observed gap reflects when the completion landed in its window. The
// v1 model pinned the fire time to slice geometry alone, which the
// conformance harness refuted: the concrete device fires at
// issue-time + delay, so a trojan can encode a secret in WHERE within
// its slice it programs the device — a channel v1 certified away.
const ModelVersion = "prove/absmodel/2"

// Action is one abstract step of a domain's program.
type Action int

// Action encoding: values in [0, Alphabet) are user-mode memory accesses
// with that input (the secret-dependent address pattern); the values
// below follow the alphabet.
const (
	// ActSyscall traps into the kernel (§5.2 Case 2a).
	ActSyscall = -1
	// ActStartIO programs the domain's device to raise its completion
	// interrupt a fixed delay later — during the NEXT slice, at an
	// offset inherited from the programming time (the §4.2 interrupt
	// channel).
	ActStartIO = -2
)

// Config instantiates the model.
type Config struct {
	// Domains is the number of security domains; domain 0 is Hi,
	// domain 1 is Lo throughout.
	Domains int
	// StepsPerSlice is the number of actions a domain executes per
	// time slice.
	StepsPerSlice int
	// Slices is the bounded execution length in slices.
	Slices int
	// Alphabet is the user-access input alphabet size.
	Alphabet int
	// DigestMod is the digest domain size (small for enumeration).
	DigestMod uint64
	// PadBudget is the abstract padding amount; it must cover the
	// worst-case switch work, which the model checks and reports.
	PadBudget uint64

	// Mechanism arming, mirroring core.Config.
	Flush        bool // reset flushables on domain switch
	Pad          bool // pad switch to sliceStart + slice + PadBudget
	Color        bool // LLC partitioned per domain (else shared)
	Clone        bool // kernel text partitioned per domain (else shared)
	PartitionIRQ bool // IRQs masked outside their owner domain
	SMT          bool // Hi and Lo live-share core-local state (never closable)
}

// DefaultConfig returns a small, fully protected instance.
func DefaultConfig() Config {
	return Config{
		Domains:       2,
		StepsPerSlice: 3,
		Slices:        6,
		Alphabet:      2,
		DigestMod:     8,
		// Worst-case switch work: kernel entry (<=16) plus three
		// flushes (<=32 each) = 112; the budget must cover it or the
		// padding assumption fails (checked, not assumed).
		PadBudget:    128,
		Flush:        true,
		Pad:          true,
		Color:        true,
		Clone:        true,
		PartitionIRQ: true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Domains < 2 {
		return fmt.Errorf("absmodel: need at least 2 domains, got %d", c.Domains)
	}
	if c.StepsPerSlice < 1 || c.Slices < 2 {
		return fmt.Errorf("absmodel: degenerate schedule %dx%d", c.StepsPerSlice, c.Slices)
	}
	if c.Alphabet < 2 {
		return fmt.Errorf("absmodel: alphabet must be >= 2")
	}
	if c.DigestMod < 2 {
		return fmt.Errorf("absmodel: digest domain must be >= 2")
	}
	return nil
}

// Funcs is one sampled family of the unspecified deterministic functions.
type Funcs struct {
	seed uint64
	mod  uint64
}

// SampleFuncs derives a function family from a seed.
func SampleFuncs(seed uint64, mod uint64) Funcs {
	return Funcs{seed: seed, mod: mod}
}

// Update is the state-update function: new digest from old digest and
// input.
func (f Funcs) Update(digest, input uint64) uint64 {
	return rng.HashCombine(f.seed^0xA11CE, rng.HashCombine(digest+1, input+3)) % f.mod
}

// Time maps a set of visible digests to an elapsed-cycle count in
// [1, 16]. Determinism is all that matters; the range just keeps clocks
// readable.
func (f Funcs) Time(obs ...uint64) uint64 {
	h := f.seed ^ 0x7E4E
	for _, o := range obs {
		h = rng.HashCombine(h, o+5)
	}
	return 1 + h%16
}

// FlushLat is the history-dependent flush latency of a flushable digest
// (§4.2): more "dirtiness", different latency.
func (f Funcs) FlushLat(digest uint64) uint64 {
	return 1 + rng.HashCombine(f.seed^0xF1A5, digest)%32
}

// Flushable resource indices.
const (
	ResL1 = iota
	ResTLB
	ResBP
	// NumFlushables is the number of flushable resources.
	NumFlushables
)

// irq is a pending device interrupt.
type irq struct {
	fireAt uint64
	owner  int
}

// State is the abstract machine state.
type State struct {
	// Flushables are the core-local time-shared digests.
	Flushables [NumFlushables]uint64
	// LLCBanks are the per-domain LLC partitions (used when Color).
	LLCBanks []uint64
	// LLCShared is the unpartitioned LLC digest (used when !Color).
	LLCShared uint64
	// KTextBanks are the per-domain kernel-text digests (when Clone).
	KTextBanks []uint64
	// KTextShared is the shared kernel image digest (when !Clone).
	KTextShared uint64
	// KGlobal is the kernel global data digest, accessed with a FIXED
	// input on every kernel entry (§5.2 Case 2a).
	KGlobal uint64

	// Clock is the hardware clock of §5.1's time model.
	Clock uint64
	// Cur is the executing domain.
	Cur int
	// SliceStart is when the current slice began.
	SliceStart uint64

	irqs []irq
}

// Machine binds a Config and a sampled function family.
type Machine struct {
	Cfg Config
	F   Funcs
}

// NewMachine validates and builds a machine. It panics on invalid
// configs: model instantiation is a prover-construction decision.
func NewMachine(cfg Config, f Funcs) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Machine{Cfg: cfg, F: f}
}

// Reset returns the initial state: all digests in the defined reset
// state (zero), clock zero, domain 0 (Hi) running.
func (m *Machine) Reset() *State {
	return &State{
		LLCBanks:   make([]uint64, m.Cfg.Domains),
		KTextBanks: make([]uint64, m.Cfg.Domains),
	}
}

// PendingIRQ is an externally visible pending interrupt.
type PendingIRQ struct {
	// FireAt is the programmed completion time.
	FireAt uint64
	// Owner is the programming domain.
	Owner int
}

// PendingIRQs returns the pending device interrupts, for the checkers'
// interrupt-view comparisons.
func (s *State) PendingIRQs() []PendingIRQ {
	out := make([]PendingIRQ, 0, len(s.irqs))
	for i := range s.irqs {
		out = append(out, s.PendingIRQAt(i))
	}
	return out
}

// NumPendingIRQs returns the number of pending device interrupts.
func (s *State) NumPendingIRQs() int { return len(s.irqs) }

// PendingIRQAt returns the i-th pending device interrupt in programming
// order: PendingIRQs without the copy, for checkers that compare
// interrupt views of many states.
func (s *State) PendingIRQAt(i int) PendingIRQ {
	return PendingIRQ{FireAt: s.irqs[i].fireAt, Owner: s.irqs[i].owner}
}

// Clone deep-copies a state.
func (s *State) Clone() *State {
	c := *s
	c.LLCBanks = append([]uint64(nil), s.LLCBanks...)
	c.KTextBanks = append([]uint64(nil), s.KTextBanks...)
	c.irqs = append([]irq(nil), s.irqs...)
	return &c
}

// CopyFrom overwrites s with src in place: Clone into an existing state,
// reusing s's bank and interrupt backing arrays, so checkers that step
// many states from one base allocate nothing per state.
func (s *State) CopyFrom(src *State) {
	llc, kt, irqs := s.LLCBanks, s.KTextBanks, s.irqs
	*s = *src
	s.LLCBanks = append(llc[:0], src.LLCBanks...)
	s.KTextBanks = append(kt[:0], src.KTextBanks...)
	s.irqs = append(irqs[:0], src.irqs...)
}

// SliceLen is the abstract slice length in clock units. Each step costs
// at most 16+handler; the slice must fit StepsPerSlice steps.
func (m *Machine) SliceLen() uint64 {
	return uint64(m.Cfg.StepsPerSlice) * 48
}

// llcDigest returns a pointer to the LLC digest the domain's accesses
// touch (its bank under colouring, the shared digest otherwise).
func (m *Machine) llcDigest(s *State, domain int) *uint64 {
	if m.Cfg.Color {
		return &s.LLCBanks[domain]
	}
	return &s.LLCShared
}

// ktextDigest returns a pointer to the kernel-text digest the domain's
// kernel entries touch.
func (m *Machine) ktextDigest(s *State, domain int) *uint64 {
	if m.Cfg.Clone {
		return &s.KTextBanks[domain]
	}
	return &s.KTextShared
}

// StepEvent describes what Lo can observe about one of its own steps.
type StepEvent struct {
	// Clock is the hardware clock after the step — the timing
	// observation.
	Clock uint64
	// IRQDelivered marks that a device interrupt was handled during
	// the step (observable as a gap).
	IRQDelivered bool
}

// Step executes one action of the current domain and returns the
// observable event. The caller schedules slices via EndSlice.
func (m *Machine) Step(s *State, act Action) StepEvent {
	var ev StepEvent
	f := m.F
	cur := s.Cur

	// Pending-interrupt delivery precedes the step (§4.2): unmasked =
	// owned by the current domain under partitioning, any pending IRQ
	// otherwise. Handling enters the kernel, so its latency is a
	// function of kernel text and global data state.
	for i := 0; i < len(s.irqs); i++ {
		q := s.irqs[i]
		if q.fireAt > s.Clock {
			continue
		}
		if m.Cfg.PartitionIRQ && q.owner != cur {
			continue // stays masked and pending
		}
		kt := m.ktextDigest(s, cur)
		// The fire time participates in the visible latency: concretely,
		// WHEN the completion preempts the victim's window shifts every
		// subsequent observation, and the step-granular model folds that
		// skid into the handler's clock contribution.
		s.Clock += f.Time(*kt, s.KGlobal, q.fireAt)
		*kt = f.Update(*kt, 11)
		s.KGlobal = f.Update(0, 0) // fixed pattern -> history-independent warm state
		ev.IRQDelivered = true
		s.irqs = append(s.irqs[:i], s.irqs[i+1:]...)
		i--
	}

	switch {
	case act == ActSyscall:
		// §5.2 Case 2a: kernel text (clone or shared) plus global
		// kernel data accessed with a FIXED input — the kernel never
		// lets a secret choose its global access pattern.
		kt := m.ktextDigest(s, cur)
		llc := m.llcDigest(s, cur)
		dt := f.Time(s.Flushables[ResL1], *kt, s.KGlobal, *llc)
		s.Clock += dt
		*kt = f.Update(*kt, 7)
		// The global-data access pattern is FIXED, so the cache state
		// it leaves is history-independent (it saturates rather than
		// accumulating) — the §5.2 Case 2a determinism argument.
		s.KGlobal = f.Update(0, 0)
		s.Flushables[ResTLB] = f.Update(s.Flushables[ResTLB], 7)

	case act == ActStartIO:
		// Program the domain's device: completion fires mid-way
		// through the next slice. A syscall-class action.
		kt := m.ktextDigest(s, cur)
		dt := f.Time(*kt, s.KGlobal)
		s.Clock += dt
		s.KGlobal = f.Update(0, 0)
		// Completion fires a fixed device delay after programming — one
		// slice plus pad, landing in the next domain's window at the
		// same offset the StartIO had in this one. The fire time
		// inherits the issue clock: the concrete device fires at
		// issue-time + delay, so a secret-dependent programming time
		// yields a secret-dependent fire time, and pinning it to slice
		// geometry instead (as this model once did) certifies away a
		// real channel.
		fire := s.Clock + m.SliceLen() + m.padAmount()
		s.irqs = append(s.irqs, irq{fireAt: fire, owner: cur})

	default:
		// §5.2 Case 1: an ordinary user instruction. Its latency is
		// a function of the state the access touches: core-local
		// flushable state and the domain's reachable LLC state. With
		// SMT, the sibling's live updates share these digests — which
		// is precisely why the configuration is unfixable.
		in := uint64(act)
		llc := m.llcDigest(s, cur)
		dt := f.Time(s.Flushables[ResL1], s.Flushables[ResTLB], s.Flushables[ResBP], *llc)
		s.Clock += dt
		s.Flushables[ResL1] = f.Update(s.Flushables[ResL1], in)
		s.Flushables[ResBP] = f.Update(s.Flushables[ResBP], in)
		*llc = f.Update(*llc, in)
	}
	ev.Clock = s.Clock
	return ev
}

func (m *Machine) padAmount() uint64 {
	if m.Cfg.Pad {
		return m.Cfg.PadBudget
	}
	return 0
}

// SwitchReport describes one domain switch for the padding checker.
type SwitchReport struct {
	// From and To are the domains.
	From, To int
	// Work is the pre-pad switch work (entry + flush latency).
	Work uint64
	// Dispatch is the clock at which To starts executing.
	Dispatch uint64
	// Overran is true if the work exceeded the pad target — the
	// assumption violation of §5.2 ("under the assumption that the
	// padding value ... is sufficient").
	Overran bool
}

// EndSlice performs the §4.2 domain-switch protocol: kernel entry via the
// outgoing image, flush of flushable state (history-dependent latency),
// padding to sliceStart + slice + pad, kernel exit via the incoming
// image, and dispatch.
func (m *Machine) EndSlice(s *State) SwitchReport {
	f := m.F
	from := s.Cur
	to := (s.Cur + 1) % m.Cfg.Domains
	rep := SwitchReport{From: from, To: to}
	t0 := s.Clock

	// Kernel entry through the outgoing domain's image.
	kt := m.ktextDigest(s, from)
	s.Clock += f.Time(*kt, s.KGlobal)
	s.KGlobal = f.Update(0, 0)

	// Flush: reset every flushable to the defined state, paying a
	// latency that depends on the flushed content.
	if m.Cfg.Flush {
		for i := range s.Flushables {
			s.Clock += f.FlushLat(s.Flushables[i])
			s.Flushables[i] = 0
		}
	}

	// Pre-warm the kernel exit path through the incoming domain's
	// image BEFORE the pad point: its cost depends on the incoming
	// domain's own state and must be hidden beneath the pad, so that
	// nothing state-dependent executes after the pad.
	kt = m.ktextDigest(s, to)
	s.Clock += f.Time(*kt, s.KGlobal)
	*kt = f.Update(*kt, 9)
	rep.Work = s.Clock - t0

	// Pad to the switched-from domain's deadline; the post-pad return
	// is constant-time by construction.
	if m.Cfg.Pad {
		target := s.SliceStart + m.SliceLen() + m.Cfg.PadBudget
		if s.Clock > target {
			rep.Overran = true
		} else {
			s.Clock = target
		}
	}

	s.Cur = to
	s.SliceStart = s.Clock
	rep.Dispatch = s.Clock
	return rep
}
