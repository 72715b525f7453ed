package nonintf

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"timeprot/internal/prove/absmodel"
)

// The reference checkers below are the original lemma enumeration, kept
// verbatim as the specification of the table-driven checkers in
// lemmas.go: every enumerated pair rebuilds two fresh states and steps
// both, and every view is materialised as a slice.

// digestAssignments enumerates [0,enumDomain)^n.
func digestAssignments(n int) [][]uint64 {
	var out [][]uint64
	cur := make([]uint64, n)
	for {
		out = append(out, append([]uint64(nil), cur...))
		i := 0
		for ; i < n; i++ {
			cur[i]++
			if cur[i] < enumDomain {
				break
			}
			cur[i] = 0
		}
		if i == n {
			return out
		}
	}
}

// buildState constructs a model state from a digest assignment vector:
// [flushables(3), llcHi, llcLo, llcShared, ktHi, ktLo, ktShared, kglobal].
func buildState(m *absmodel.Machine, v []uint64) *absmodel.State {
	s := m.Reset()
	s.Flushables[absmodel.ResL1] = v[0]
	s.Flushables[absmodel.ResTLB] = v[1]
	s.Flushables[absmodel.ResBP] = v[2]
	s.LLCBanks[0], s.LLCBanks[1] = v[3], v[4]
	s.LLCShared = v[5]
	s.KTextBanks[0], s.KTextBanks[1] = v[6], v[7]
	s.KTextShared = v[8]
	s.KGlobal = v[9]
	return s
}

// loIRQView lists the pending interrupts that can fire while Lo runs.
func loIRQView(m *absmodel.Machine, s *absmodel.State) []uint64 {
	var vis []uint64
	for _, q := range s.PendingIRQs() {
		if !m.Cfg.PartitionIRQ || q.Owner == 1 {
			vis = append(vis, q.FireAt, uint64(q.Owner))
		}
	}
	return vis
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refCacheView and refKernelView are the slice-valued Lo views.
func refCacheView(m *absmodel.Machine, s *absmodel.State) []uint64 {
	if m.Cfg.Color {
		return []uint64{s.LLCBanks[1]}
	}
	return []uint64{s.LLCShared}
}

func refKernelView(m *absmodel.Machine, s *absmodel.State) []uint64 {
	if m.Cfg.Clone {
		return []uint64{s.KTextBanks[1]}
	}
	return []uint64{s.KTextShared}
}

// refHiStepLemma is CheckHiStepLemma's reference enumeration.
func refHiStepLemma(m *absmodel.Machine) []CaseReport {
	acts := hiActions(m.Cfg)
	user := CaseReport{Name: "Case1-user", Holds: true}
	kern := CaseReport{Name: "Case2a-kernel", Holds: true}
	irqs := CaseReport{Name: "irq-partition", Holds: true}
	smt := CaseReport{Name: "smt-live-sharing", Holds: true}

	for _, v := range digestAssignments(stateDims) {
		for i := 0; i < len(acts); i++ {
			for j := i + 1; j < len(acts); j++ {
				s1 := buildState(m, v)
				s2 := buildState(m, v)
				s1.Cur, s2.Cur = 0, 0
				m.Step(s1, acts[i])
				m.Step(s2, acts[j])
				user.Checked++
				kern.Checked++
				irqs.Checked++
				smt.Checked++

				witness := func() string {
					return fmt.Sprintf("state %v, Hi actions %v vs %v", v, acts[i], acts[j])
				}
				// Attribute divergences per component.
				if user.Holds {
					a, b := refCacheView(m, s1), refCacheView(m, s2)
					if !equalU64(a, b) {
						user.Holds = false
						user.Witness = witness()
					}
				}
				if kern.Holds {
					a, b := refKernelView(m, s1), refKernelView(m, s2)
					if !equalU64(a, b) {
						kern.Holds = false
						kern.Witness = witness()
					}
				}
				if irqs.Holds && !equalU64(loIRQView(m, s1), loIRQView(m, s2)) {
					irqs.Holds = false
					irqs.Witness = witness()
				}
				if m.Cfg.SMT && smt.Holds {
					if s1.Flushables != s2.Flushables {
						smt.Holds = false
						smt.Witness = witness()
					}
				}
			}
		}
	}
	return []CaseReport{user, kern, irqs, smt}
}

// refSwitchLemma is CheckSwitchLemma's reference enumeration.
func refSwitchLemma(m *absmodel.Machine) CaseReport {
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
	trans := digestAssignments(4)
	jitters := []uint64{0, 3, 9, 17}
	// A few persistent bases suffice: the lemma's quantification is
	// over transients; persistent parts ride along unchanged.
	bases := [][]uint64{
		make([]uint64, stateDims),
		{1, 2, 0, 1, 2, 1, 0, 2, 1, 2},
		{2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
	}
	for _, base := range bases {
		for ti := 0; ti < len(trans); ti++ {
			for tj := ti; tj < len(trans); tj++ {
				for _, w1 := range jitters {
					for _, w2 := range jitters {
						s1, s2 := buildState(m, base), buildState(m, base)
						copy(s1.Flushables[:], trans[ti][:3])
						copy(s2.Flushables[:], trans[tj][:3])
						s1.KGlobal, s2.KGlobal = trans[ti][3], trans[tj][3]
						s1.Cur, s2.Cur = 0, 0
						s1.Clock, s2.Clock = w1, w2
						// SliceStart stays 0: clocks model accumulated
						// slice time plus jitter.
						r1 := m.EndSlice(s1)
						r2 := m.EndSlice(s2)
						rep.Checked++
						if r1.Overran || r2.Overran {
							rep.Holds = false
							rep.Witness = fmt.Sprintf("pad overrun: transients %v/%v jitter %d/%d", trans[ti], trans[tj], w1, w2)
							return rep
						}
						if r1.Dispatch != r2.Dispatch || s1.Flushables != s2.Flushables || s1.KGlobal != s2.KGlobal {
							rep.Holds = false
							rep.Witness = fmt.Sprintf("dispatch %d vs %d, flushables %v vs %v, kglobal %d vs %d (transients %v/%v, jitter %d/%d)",
								r1.Dispatch, r2.Dispatch, s1.Flushables, s2.Flushables, s1.KGlobal, s2.KGlobal, trans[ti], trans[tj], w1, w2)
							return rep
						}
					}
				}
			}
		}
	}
	return rep
}

// lemmaConfig is one configuration the equivalence test checks.
type lemmaConfig struct {
	name string
	cfg  absmodel.Config
}

// lemmaConfigs returns the PROOFS.md matrix (every ablation over every
// model variant) plus multi-mechanism combinations; short keeps the
// base-model ablations only.
func lemmaConfigs(short bool) []lemmaConfig {
	ablations := []struct {
		name   string
		mutate func(*absmodel.Config)
	}{
		{"full", func(*absmodel.Config) {}},
		{"no-flush", func(c *absmodel.Config) { c.Flush = false }},
		{"no-pad", func(c *absmodel.Config) { c.Pad = false }},
		{"no-colour", func(c *absmodel.Config) { c.Color = false }},
		{"shared-kernel", func(c *absmodel.Config) { c.Clone = false }},
		{"no-irq-partition", func(c *absmodel.Config) { c.PartitionIRQ = false }},
		{"smt", func(c *absmodel.Config) { c.SMT = true }},
	}
	base := absmodel.DefaultConfig()
	wide := base
	wide.Alphabet = 3
	deep := base
	deep.StepsPerSlice, deep.Slices = 4, 8
	models := []lemmaConfig{{"base", base}, {"wide", wide}, {"deep", deep}}
	if short {
		models = models[:1]
	}
	var out []lemmaConfig
	for _, md := range models {
		for _, a := range ablations {
			cfg := md.cfg
			a.mutate(&cfg)
			out = append(out, lemmaConfig{md.name + "/" + a.name, cfg})
		}
	}
	if short {
		return out
	}
	combos := []struct {
		name   string
		mutate func(*absmodel.Config)
	}{
		{"no-flush+no-pad", func(c *absmodel.Config) { c.Flush, c.Pad = false, false }},
		{"smt+no-colour", func(c *absmodel.Config) { c.SMT, c.Color = true, false }},
		{"no-colour+shared-kernel", func(c *absmodel.Config) { c.Color, c.Clone = false, false }},
		{"no-irq-partition+no-pad", func(c *absmodel.Config) { c.PartitionIRQ, c.Pad = false, false }},
		{"short-pad", func(c *absmodel.Config) { c.PadBudget = 4 }},
	}
	for _, c := range combos {
		cfg := base
		c.mutate(&cfg)
		out = append(out, lemmaConfig{"base/" + c.name, cfg})
	}
	return out
}

// TestLemmasMatchReference pins the table-driven checkers to the
// reference enumeration: identical reports, Checked counts and witness
// strings included, on every configuration at two seeds. It also checks
// that the comparison notices a post-state table stepped one action off.
func TestLemmasMatchReference(t *testing.T) {
	var mu sync.Mutex
	mutantCaught := 0
	t.Run("configs", func(t *testing.T) {
		for _, lc := range lemmaConfigs(testing.Short()) {
			for _, seed := range []uint64{testSeed, 7} {
				t.Run(fmt.Sprintf("%s/seed=%d", lc.name, seed), func(t *testing.T) {
					t.Parallel()
					m := absmodel.NewMachine(lc.cfg, absmodel.SampleFuncs(seed, lc.cfg.DigestMod))
					want := append(refHiStepLemma(m), refSwitchLemma(m))
					got := append(CheckHiStepLemma(m), CheckSwitchLemma(m))
					if !reflect.DeepEqual(got, want) {
						t.Errorf("reports differ from the reference:\n got  %+v\n want %+v", got, want)
					}
					if !reflect.DeepEqual(checkHiStepLemma(m, 1), want[:len(want)-1]) {
						mu.Lock()
						mutantCaught++
						mu.Unlock()
					}
				})
			}
		}
	})
	t.Logf("the off-by-one post-state table differs from the reference on %d configurations", mutantCaught)
	if mutantCaught == 0 {
		t.Error("a post-state table stepped one action off matched the reference on every configuration")
	}
}

// TestLemmaAllocBounded gates the lemma checkers' allocations: a fixed
// handful of tables and states a call, nothing per enumerated state
// (59,049 assignments).
func TestLemmaAllocBounded(t *testing.T) {
	const bound = 5000
	noColour := absmodel.DefaultConfig()
	noColour.Color = false
	for _, lc := range []lemmaConfig{{"default", absmodel.DefaultConfig()}, {"no-colour", noColour}} {
		m := absmodel.NewMachine(lc.cfg, absmodel.SampleFuncs(testSeed, lc.cfg.DigestMod))
		allocs := testing.AllocsPerRun(2, func() {
			CheckHiStepLemma(m)
			CheckSwitchLemma(m)
		})
		t.Logf("%s: %.0f allocs a call", lc.name, allocs)
		if allocs >= bound {
			t.Errorf("%s: %.0f allocs a call, want < %d", lc.name, allocs, bound)
		}
	}
}
