package nonintf

import (
	"fmt"

	"timeprot/internal/prove/absmodel"
)

// This file checks the unwinding lemmas behind the paper's §5.2 case
// analysis by exhaustive enumeration over the abstract model's digest
// domain. The induction they support is:
//
//   - While Hi executes, none of its actions may change state that Lo
//     can later observe THROUGH ITS OWN TIMING without an intervening
//     reset: the persistent Lo-visible state (Lo's LLC partition or the
//     shared LLC, Lo's kernel image or the shared image, kernel global
//     data, and any interrupts that can fire during Lo). Violations are
//     attributed to the paper's cases: a polluted user-visible cache is
//     Case 1, polluted kernel text is Case 2a, a Hi-programmed interrupt
//     visible to Lo is the §4.2 interrupt channel, and live-shared SMT
//     state is the §4.1 hyperthreading verdict.
//   - The domain switch must erase every transient divergence Hi is
//     permitted to cause: flushables reset to the defined state and the
//     dispatch clock padded to a constant (Case 2b).
//
// Together with determinism of the machine, these step-local lemmas give
// bounded noninterference; CheckBounded validates that end-to-end.

// CaseReport is one lemma's verdict.
type CaseReport struct {
	// Name identifies the lemma ("Case1-user", "Case2a-kernel",
	// "Case2b-switch", "irq-partition", "smt").
	Name string
	// Holds is the verdict.
	Holds bool
	// Checked counts the assignments examined.
	Checked int
	// Witness describes the first violating assignment.
	Witness string
}

// enumDomain is the digest range exhaustively enumerated in lemma checks;
// it is deliberately smaller than the model's full domain to keep the
// product space tractable while remaining exhaustive over its own range.
const enumDomain = 3

// stateDims is the length of a digest assignment vector (see setDigests).
const stateDims = 10

// nextAssignment advances v to the next vector of [0,enumDomain)^len(v)
// in odometer order (element 0 fastest) and reports false once every
// vector has been visited, leaving v all zero again.
func nextAssignment(v []uint64) bool {
	for i := range v {
		v[i]++
		if v[i] < enumDomain {
			return true
		}
		v[i] = 0
	}
	return false
}

// setDigests writes a digest assignment vector into a state:
// [flushables(3), llcHi, llcLo, llcShared, ktHi, ktLo, ktShared, kglobal].
func setDigests(s *absmodel.State, v []uint64) {
	s.Flushables[absmodel.ResL1] = v[0]
	s.Flushables[absmodel.ResTLB] = v[1]
	s.Flushables[absmodel.ResBP] = v[2]
	s.LLCBanks[0], s.LLCBanks[1] = v[3], v[4]
	s.LLCShared = v[5]
	s.KTextBanks[0], s.KTextBanks[1] = v[6], v[7]
	s.KTextShared = v[8]
	s.KGlobal = v[9]
}

// loIRQViewEqual reports whether two states agree on the pending
// interrupts that can fire while Lo runs: the same (fire time, owner)
// sequence once interrupts masked during Lo are skipped.
func loIRQViewEqual(m *absmodel.Machine, a, b *absmodel.State) bool {
	visible := func(q absmodel.PendingIRQ) bool { return !m.Cfg.PartitionIRQ || q.Owner == 1 }
	na, nb := a.NumPendingIRQs(), b.NumPendingIRQs()
	i, j := 0, 0
	for {
		for i < na && !visible(a.PendingIRQAt(i)) {
			i++
		}
		for j < nb && !visible(b.PendingIRQAt(j)) {
			j++
		}
		if i == na || j == nb {
			return i == na && j == nb
		}
		if a.PendingIRQAt(i) != b.PendingIRQAt(j) {
			return false
		}
		i++
		j++
	}
}

// CheckHiStepLemma verifies that no pair of Hi actions, from any state,
// diverges the persistent Lo-visible state or Lo's interrupt view. The
// returned reports split the verdict by the §5.2 case the violated
// component belongs to.
//
// Each assignment's state is built once and each Hi action stepped once
// from it into its own reused post-state; the action pairs are then
// compared against that table.
func CheckHiStepLemma(m *absmodel.Machine) []CaseReport {
	return checkHiStepLemma(m, 0)
}

// checkHiStepLemma is CheckHiStepLemma with post-state k stepped by action
// (k+rot) mod n. The checker passes rot 0; the equivalence test passes 1
// to show that it notices a misindexed post-state table.
func checkHiStepLemma(m *absmodel.Machine, rot int) []CaseReport {
	acts := hiActions(m.Cfg)
	user := CaseReport{Name: "Case1-user", Holds: true}
	kern := CaseReport{Name: "Case2a-kernel", Holds: true}
	irqs := CaseReport{Name: "irq-partition", Holds: true}
	smt := CaseReport{Name: "smt-live-sharing", Holds: true}

	base := m.Reset()
	post := make([]*absmodel.State, len(acts))
	for k := range post {
		post[k] = m.Reset()
	}
	v := make([]uint64, stateDims)
	for more := true; more; more = nextAssignment(v) {
		setDigests(base, v)
		for k, s := range post {
			s.CopyFrom(base)
			m.Step(s, acts[(k+rot)%len(acts)])
		}
		for i := 0; i < len(acts); i++ {
			for j := i + 1; j < len(acts); j++ {
				s1, s2 := post[i], post[j]
				user.Checked++
				kern.Checked++
				irqs.Checked++
				smt.Checked++

				witness := func() string {
					return fmt.Sprintf("state %v, Hi actions %v vs %v", v, acts[i], acts[j])
				}
				// Attribute divergences per component.
				if user.Holds && cacheView(m, s1) != cacheView(m, s2) {
					user.Holds = false
					user.Witness = witness()
				}
				if kern.Holds && kernelView(m, s1) != kernelView(m, s2) {
					kern.Holds = false
					kern.Witness = witness()
				}
				if irqs.Holds && !loIRQViewEqual(m, s1, s2) {
					irqs.Holds = false
					irqs.Witness = witness()
				}
				if m.Cfg.SMT && smt.Holds && s1.Flushables != s2.Flushables {
					smt.Holds = false
					smt.Witness = witness()
				}
			}
		}
	}
	return []CaseReport{user, kern, irqs, smt}
}

// cacheView is the user-reachable cache state Lo's Case-1 steps time
// against.
func cacheView(m *absmodel.Machine, s *absmodel.State) uint64 {
	if m.Cfg.Color {
		return s.LLCBanks[1]
	}
	return s.LLCShared
}

// kernelView is the kernel state Lo's Case-2a syscalls time against:
// the kernel text Lo traps into. Kernel global data is excluded: its
// fixed access pattern means every kernel entry, the switch path's own
// included, deterministically re-establishes its cache state.
func kernelView(m *absmodel.Machine, s *absmodel.State) uint64 {
	if m.Cfg.Clone {
		return s.KTextBanks[1]
	}
	return s.KTextShared
}

// switchOutcome is what the switch lemma compares about one EndSlice.
type switchOutcome struct {
	overran    bool
	dispatch   uint64
	flushables [absmodel.NumFlushables]uint64
	kglobal    uint64
}

// CheckSwitchLemma verifies Case 2b: from any two states that agree on
// the persistent Lo-visible parts but differ arbitrarily in transients
// (flushable digests and accumulated clock), the switch into Lo erases
// the difference — flushables reset and dispatch time constant.
//
// A switch's outcome depends only on (base, transients, jitter), so each
// base runs EndSlice once per (transients, jitter) and the pairs are
// compared against that table.
func CheckSwitchLemma(m *absmodel.Machine) CaseReport {
	rep := CaseReport{Name: "Case2b-switch", Holds: true}
	if m.Cfg.SMT {
		// No switches exist between SMT siblings; the lemma is
		// vacuous and protection must fail in the Hi-step lemma.
		rep.Witness = "vacuous: no domain switch separates SMT siblings"
		return rep
	}
	// Transients the switch must erase: the flushable triple, the
	// kernel-global-data state (reset by the switch's own
	// deterministic kernel entry), and accumulated clock jitter.
	var trans [][4]uint64
	for tv := make([]uint64, 4); ; {
		trans = append(trans, [4]uint64(tv))
		if !nextAssignment(tv) {
			break
		}
	}
	jitters := []uint64{0, 3, 9, 17}
	// A few persistent bases suffice: the lemma's quantification is
	// over transients; persistent parts ride along unchanged.
	bases := [][]uint64{
		make([]uint64, stateDims),
		{1, 2, 0, 1, 2, 1, 0, 2, 1, 2},
		{2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
	}
	base, s := m.Reset(), m.Reset()
	table := make([]switchOutcome, len(trans)*len(jitters))
	outcome := func(t, w int) switchOutcome { return table[t*len(jitters)+w] }
	for _, bv := range bases {
		setDigests(base, bv)
		for t, tv := range trans {
			for w, jitter := range jitters {
				s.CopyFrom(base)
				copy(s.Flushables[:], tv[:3])
				s.KGlobal = tv[3]
				// SliceStart stays 0: clocks model accumulated slice
				// time plus jitter.
				s.Clock = jitter
				r := m.EndSlice(s)
				table[t*len(jitters)+w] = switchOutcome{r.Overran, r.Dispatch, s.Flushables, s.KGlobal}
			}
		}
		for ti := 0; ti < len(trans); ti++ {
			for tj := ti; tj < len(trans); tj++ {
				for w1, j1 := range jitters {
					for w2, j2 := range jitters {
						o1, o2 := outcome(ti, w1), outcome(tj, w2)
						rep.Checked++
						if o1.overran || o2.overran {
							rep.Holds = false
							rep.Witness = fmt.Sprintf("pad overrun: transients %v/%v jitter %d/%d", trans[ti], trans[tj], j1, j2)
							return rep
						}
						if o1.dispatch != o2.dispatch || o1.flushables != o2.flushables || o1.kglobal != o2.kglobal {
							rep.Holds = false
							rep.Witness = fmt.Sprintf("dispatch %d vs %d, flushables %v vs %v, kglobal %d vs %d (transients %v/%v, jitter %d/%d)",
								o1.dispatch, o2.dispatch, o1.flushables, o2.flushables, o1.kglobal, o2.kglobal, trans[ti], trans[tj], j1, j2)
							return rep
						}
					}
				}
			}
		}
	}
	return rep
}

// ProofReport aggregates the lemma verdicts and the bounded check for
// one configuration — one row of the paper's would-be proof obligations.
type ProofReport struct {
	// Cfg is the checked configuration.
	Cfg absmodel.Config
	// Cases are the unwinding-lemma verdicts.
	Cases []CaseReport
	// Bounded is the end-to-end enumeration verdict. When it refutes,
	// its Counterexample is the MINIMAL pair (see Witness).
	Bounded Verdict
	// Witness is the minimal counterexample with its Lo observation
	// traces; nil when the bounded check proved.
	Witness *Witness
}

// Proved reports whether every lemma holds and the bounded check passed
// without padding overruns.
func (r ProofReport) Proved() bool {
	for _, c := range r.Cases {
		if !c.Holds {
			return false
		}
	}
	return r.Bounded.Proved && r.Bounded.PadOverruns == 0
}

// String renders the report.
func (r ProofReport) String() string {
	out := ""
	for _, c := range r.Cases {
		mark := "HOLDS"
		if !c.Holds {
			mark = "FAILS"
		}
		out += fmt.Sprintf("  %-18s %-6s (%d checked) %s\n", c.Name, mark, c.Checked, c.Witness)
	}
	out += fmt.Sprintf("  %-18s %s\n", "bounded-NI", r.Bounded)
	return out
}

// Prove runs the full §5.2 proof obligations for a configuration over
// `families` sampled function families (the lemmas use the first family;
// their verdicts are structural and family-independent, which the tests
// verify separately). When the bounded check refutes, the raw
// counterexample is shrunk to a minimal Witness, which also replaces
// Bounded.Counterexample — every refutation carries minimal evidence.
func Prove(cfg absmodel.Config, families, extraRandom int, seed uint64) ProofReport {
	m := absmodel.NewMachine(cfg, absmodel.SampleFuncs(seed, cfg.DigestMod))
	rep := ProofReport{Cfg: cfg}
	rep.Cases = CheckHiStepLemma(m)
	rep.Cases = append(rep.Cases, CheckSwitchLemma(m))
	rep.Bounded = CheckBounded(cfg, families, extraRandom, seed)
	if rep.Bounded.Counterexample != nil {
		rep.Witness = Minimize(cfg, rep.Bounded.Counterexample)
		rep.Bounded.Counterexample = rep.Witness.Counterexample()
	}
	return rep
}
