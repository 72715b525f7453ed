// Package nonintf machine-checks time protection over the abstract model
// of internal/prove/absmodel, in two complementary ways that mirror §5.2
// of the paper:
//
//  1. BOUNDED NONINTERFERENCE (CheckBounded): exhaustively enumerate the
//     Hi domain's programs over a finite action alphabet and bounded
//     length, run the machine, and compare everything Lo observes — its
//     per-step clock readings and interrupt events. For the instantiated
//     bound this is a complete check: either every Hi program yields the
//     identical Lo observation trace (a proof for the bound), or a
//     concrete counterexample pair is returned.
//
//  2. UNWINDING LEMMAS (CheckHiStepLemma, CheckSwitchLemma): the
//     step-local conditions whose induction gives noninterference,
//     following the paper's case analysis: Hi's actions never disturb the persistent Lo-visible
//     state (Cases 1 and 2a — user steps and syscalls read only
//     partitioned or freshly-flushed state); and the domain switch erases
//     all transient divergence — flushables reset, dispatch time padded
//     to a constant (Case 2b). Each lemma is checked by exhaustive
//     enumeration of digest assignments over the model's small domain.
//
// Both checks quantify over SAMPLED FAMILIES of the unspecified
// deterministic time/update functions (§5.1): a verdict holds only if it
// holds for every sampled family, so no conclusion depends on what the
// concrete functions compute.
package nonintf

import (
	"fmt"

	"timeprot/internal/prove/absmodel"
)

// ModelVersion is the noninterference checker's registered model-version
// string, part of the prover fingerprint under which the experiment
// engine keys proof cells. Bump it whenever a verdict could change for
// the same absmodel instance — the Lo/bystander reference programs, the
// program enumeration, the lemma case analysis, or the witness
// extraction; cached proof cells then become structural misses. Pure
// refactors do not bump it.
const ModelVersion = "prove/nonintf/1"

// Observation is Lo's complete view of one of its steps.
type Observation struct {
	// Clock is the hardware clock after the step.
	Clock uint64
	// IRQ marks an interrupt delivery during the step.
	IRQ bool
}

// Counterexample is a concrete witness of interference.
type Counterexample struct {
	// FamilySeed identifies the sampled function family.
	FamilySeed uint64
	// HiA and HiB are the two Hi programs.
	HiA, HiB []absmodel.Action
	// Index is the first diverging Lo observation.
	Index int
	// A and B are the diverging observations.
	A, B Observation
}

// String renders the counterexample.
func (c *Counterexample) String() string {
	return fmt.Sprintf("family %d: Hi %v vs %v -> Lo obs[%d] %+v vs %+v",
		c.FamilySeed, c.HiA, c.HiB, c.Index, c.A, c.B)
}

// Verdict is the outcome of the bounded noninterference check.
type Verdict struct {
	// Proved is true when all runs agreed for all families.
	Proved bool
	// Runs is the number of complete machine executions compared.
	Runs int
	// Families is the number of sampled function families.
	Families int
	// PadOverruns counts runs in which the switch work exceeded the
	// pad budget; a nonzero count invalidates the padding assumption
	// and is reported even when observations agree.
	PadOverruns int
	// Counterexample is non-nil when Proved is false.
	Counterexample *Counterexample
}

// String renders the verdict.
func (v Verdict) String() string {
	if v.Proved {
		return fmt.Sprintf("PROVED (%d runs, %d families, %d overruns)", v.Runs, v.Families, v.PadOverruns)
	}
	return fmt.Sprintf("REFUTED after %d runs: %s", v.Runs, v.Counterexample)
}

// hiActions returns the Hi action space: every user input, a syscall,
// and a device-interrupt programming action.
func hiActions(cfg absmodel.Config) []absmodel.Action {
	var acts []absmodel.Action
	for a := 0; a < cfg.Alphabet; a++ {
		acts = append(acts, absmodel.Action(a))
	}
	acts = append(acts, absmodel.ActSyscall, absmodel.ActStartIO)
	return acts
}

// loProgram is Lo's fixed behaviour: a deterministic cycle of user
// accesses and a syscall, exercising both Case 1 and Case 2a every slice.
func loProgram(cfg absmodel.Config, step int) absmodel.Action {
	switch step % 3 {
	case 0:
		return absmodel.Action(0)
	case 1:
		return absmodel.ActSyscall
	default:
		return absmodel.Action(1 % cfg.Alphabet)
	}
}

// RunTrace executes the bounded schedule with the given Hi program
// (indexed per Hi step, wrapping) and returns Lo's observation trace.
func RunTrace(m *absmodel.Machine, hi []absmodel.Action) (obs []Observation, overruns int) {
	return runTrace(m, m.Reset(), hi, nil)
}

// runTrace is RunTrace from the reset state s, appending Lo's
// observations to obs; s is consumed. Reusing s and obs across runs makes
// a run allocation-free once both have grown.
func runTrace(m *absmodel.Machine, s *absmodel.State, hi []absmodel.Action, obs []Observation) ([]Observation, int) {
	cfg := m.Cfg
	overruns := 0
	hiIdx, loIdx := 0, 0
	if cfg.SMT {
		// Concurrent hardware threads: interleave one Hi and one Lo
		// step per round over the same live state; no switches, no
		// flushes — structurally, there is nothing the OS can do.
		rounds := cfg.StepsPerSlice * cfg.Slices
		for i := 0; i < rounds; i++ {
			s.Cur = 0
			m.Step(s, hi[hiIdx%len(hi)])
			hiIdx++
			s.Cur = 1
			ev := m.Step(s, loProgram(cfg, loIdx))
			loIdx++
			obs = append(obs, Observation{Clock: ev.Clock, IRQ: ev.IRQDelivered})
		}
		return obs, 0
	}
	byIdx := 0
	for slice := 0; slice < cfg.Slices; slice++ {
		for step := 0; step < cfg.StepsPerSlice; step++ {
			switch s.Cur {
			case 0:
				m.Step(s, hi[hiIdx%len(hi)])
				hiIdx++
			case 1:
				ev := m.Step(s, loProgram(cfg, loIdx))
				loIdx++
				obs = append(obs, Observation{Clock: ev.Clock, IRQ: ev.IRQDelivered})
			default:
				// Bystander domains (non-hierarchical policies, §2:
				// "there may be other secrets for which the roles of
				// the domains are reversed"): fixed, non-observed
				// behaviour mixing user steps and syscalls.
				m.Step(s, bystanderProgram(cfg, byIdx))
				byIdx++
			}
		}
		rep := m.EndSlice(s)
		if rep.Overran {
			overruns++
		}
	}
	return obs, overruns
}

// bystanderProgram is the fixed behaviour of domains other than Hi and
// Lo in multi-domain schedules.
func bystanderProgram(cfg absmodel.Config, step int) absmodel.Action {
	if step%2 == 0 {
		return absmodel.Action(step % cfg.Alphabet)
	}
	return absmodel.ActSyscall
}

// slicePrograms enumerates every Hi program of one slice (StepsPerSlice
// actions over the full action space); a full-run Hi program repeats its
// slice program.
func slicePrograms(cfg absmodel.Config) [][]absmodel.Action {
	acts := hiActions(cfg)
	var out [][]absmodel.Action
	n := cfg.StepsPerSlice
	idx := make([]int, n)
	for {
		prog := make([]absmodel.Action, n)
		for i, j := range idx {
			prog[i] = acts[j]
		}
		out = append(out, prog)
		// Odometer increment.
		i := 0
		for ; i < n; i++ {
			idx[i]++
			if idx[i] < len(acts) {
				break
			}
			idx[i] = 0
		}
		if i == n {
			return out
		}
	}
}

// CheckBounded performs the exhaustive bounded noninterference check:
// for `families` sampled function families, every enumerable Hi slice
// program (plus `extraRandom` full-length random programs) must yield the
// identical Lo observation trace.
func CheckBounded(cfg absmodel.Config, families int, extraRandom int, baseSeed uint64) Verdict {
	v := Verdict{Proved: true, Families: families}
	slices := slicePrograms(cfg)
	// Every run copies the reset state into one reused state and appends
	// to one reused observation buffer; a family's reference trace keeps
	// a buffer of its own.
	var ref, obs []Observation
	for fam := 0; fam < families; fam++ {
		seed := baseSeed + uint64(fam)*0x9E37
		m := absmodel.NewMachine(cfg, absmodel.SampleFuncs(seed, cfg.DigestMod))
		reset, s := m.Reset(), m.Reset()

		progs := append(slices[:len(slices):len(slices)], randomPrograms(cfg, extraRandom, seed^0xBEEF)...)

		var refProg []absmodel.Action
		for i, hi := range progs {
			s.CopyFrom(reset)
			var ov int
			obs, ov = runTrace(m, s, hi, obs[:0])
			v.Runs++
			v.PadOverruns += ov
			if i == 0 {
				ref, obs, refProg = obs, ref, hi
				continue
			}
			if idx, a, b, diff := firstDivergence(ref, obs); diff {
				v.Proved = false
				v.Counterexample = &Counterexample{
					FamilySeed: seed,
					HiA:        refProg,
					HiB:        hi,
					Index:      idx,
					A:          a,
					B:          b,
				}
				return v
			}
		}
	}
	return v
}

// randomPrograms samples full-length non-repeating Hi programs for extra
// coverage beyond the per-slice exhaustive set.
func randomPrograms(cfg absmodel.Config, n int, seed uint64) [][]absmodel.Action {
	if n <= 0 {
		return nil
	}
	acts := hiActions(cfg)
	hiSlices := (cfg.Slices + 1) / 2
	length := cfg.StepsPerSlice * hiSlices
	r := newSplit(seed)
	flat := make([]absmodel.Action, n*length)
	out := make([][]absmodel.Action, n)
	for i := range out {
		prog := flat[i*length : (i+1)*length : (i+1)*length]
		for j := range prog {
			prog[j] = acts[int(r.next()%uint64(len(acts)))]
		}
		out[i] = prog
	}
	return out
}

// splitmix for local sampling without importing math/rand.
type split struct{ s uint64 }

func newSplit(seed uint64) *split { return &split{s: seed} }
func (r *split) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func firstDivergence(a, b []Observation) (int, Observation, Observation, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i, a[i], b[i], true
		}
	}
	if len(a) != len(b) {
		var oa, ob Observation
		if len(a) > n {
			oa = a[n]
		}
		if len(b) > n {
			ob = b[n]
		}
		return n, oa, ob, true
	}
	return 0, Observation{}, Observation{}, false
}
