package timeprot

import (
	"fmt"
	"testing"

	"timeprot/internal/prove/absmodel"
	"timeprot/internal/prove/nonintf"
)

// One benchmark per experiment of EXPERIMENTS.md. Each iteration
// regenerates the full table for that experiment; -v output is the
// table itself, so `go test -bench=. -benchmem` doubles as the
// reproduction harness. Absolute numbers are simulator-relative; the
// shape (who leaks, who doesn't, by how much) is the reproduced result.

const benchSeed = 2026

func benchExperiment(b *testing.B, id string, rounds int) {
	b.Helper()
	var e Experiment
	for i := 0; i < b.N; i++ {
		var err error
		e, err = RunExperiment(id, rounds, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if testing.Verbose() {
		fmt.Println(e)
	}
	for _, r := range e.Rows {
		b.ReportMetric(r.Est.CapacityBits, "bits/"+sanitize(r.Label))
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ' || r == ',' || r == '(' || r == ')':
			// drop
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// BenchmarkT1Prover regenerates the T1 proof matrix: the full-protection
// proof and every ablation's refutation.
func BenchmarkT1Prover(b *testing.B) {
	var m []NamedProof
	for i := 0; i < b.N; i++ {
		m = ProofMatrix(2, 40, benchSeed)
	}
	b.StopTimer()
	proved := 0
	for _, row := range m {
		if row.Report.Proved() {
			proved++
		}
		if testing.Verbose() {
			fmt.Printf("%s:\n%s", row.Name, row.Report)
		}
	}
	b.ReportMetric(float64(proved), "configs-proved")
	b.ReportMetric(float64(len(m)-proved), "configs-refuted")
}

// BenchmarkT2L1PrimeProbe regenerates table T2 (§3.1).
func BenchmarkT2L1PrimeProbe(b *testing.B) { benchExperiment(b, "T2", 40) }

// BenchmarkT3LLCPrimeProbe regenerates table T3 (§4.1).
func BenchmarkT3LLCPrimeProbe(b *testing.B) { benchExperiment(b, "T3", 40) }

// BenchmarkT4FlushLatency regenerates table T4 (§4.2).
func BenchmarkT4FlushLatency(b *testing.B) { benchExperiment(b, "T4", 40) }

// BenchmarkT5KernelClone regenerates table T5 (§4.2).
func BenchmarkT5KernelClone(b *testing.B) { benchExperiment(b, "T5", 40) }

// BenchmarkT6IRQ regenerates table T6 (§4.2).
func BenchmarkT6IRQ(b *testing.B) { benchExperiment(b, "T6", 40) }

// BenchmarkT7SMT regenerates table T7 (§4.1).
func BenchmarkT7SMT(b *testing.B) { benchExperiment(b, "T7", 40) }

// BenchmarkT8Bus regenerates table T8 (§2).
func BenchmarkT8Bus(b *testing.B) { benchExperiment(b, "T8", 40) }

// BenchmarkT9Downgrader regenerates table T9 (Fig. 1, §3.2, §4.3).
func BenchmarkT9Downgrader(b *testing.B) { benchExperiment(b, "T9", 150) }

// BenchmarkT10TLB regenerates the §5.3 TLB theorem check.
func BenchmarkT10TLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := CheckInvariantsTLB()
		if !f {
			b.Fatal("TLB theorem violated")
		}
	}
}

// BenchmarkT11Padding regenerates table T11 (§5 padding sufficiency).
func BenchmarkT11Padding(b *testing.B) { benchExperiment(b, "T11", 20) }

// BenchmarkT12Overheads regenerates the protection-cost ablation.
func BenchmarkT12Overheads(b *testing.B) { benchExperiment(b, "T12", 48) }

// BenchmarkT13BranchPredictor regenerates table T13 (§3.1).
func BenchmarkT13BranchPredictor(b *testing.B) { benchExperiment(b, "T13", 40) }

// BenchmarkT14TLB regenerates table T14 (§3.1, §5.3).
func BenchmarkT14TLB(b *testing.B) { benchExperiment(b, "T14", 40) }

// --- Microbenchmarks of the substrates -------------------------------

// BenchmarkDomainSwitch measures the simulated kernel's full padded
// switch protocol (simulation cost, not simulated cycles).
func BenchmarkDomainSwitch(b *testing.B) {
	pcfg := DefaultPlatform()
	pcfg.Cores = 1
	sys, err := NewSystem(SystemConfig{
		Platform:   pcfg,
		Protection: FullProtection(),
		Domains: []DomainSpec{
			{Name: "A", SliceCycles: 2_000, PadCycles: 3_000, Colors: ColorRange(1, 32), CodePages: 2, HeapPages: 4},
			{Name: "B", SliceCycles: 2_000, PadCycles: 3_000, Colors: ColorRange(32, 64), CodePages: 2, HeapPages: 4},
		},
		Schedule:  [][]int{{0, 1}},
		MaxCycles: uint64(b.N)*20_000 + 10_000_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := b.N
	for d, name := range map[int]string{0: "a", 1: "b"} {
		if _, err := sys.Spawn(d, name, 0, func(c *UserCtx) {
			for i := 0; i < n; i++ {
				c.Compute(400)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	if _, err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBoundedNI measures one full bounded-noninterference proof of
// the default protected model.
func BenchmarkBoundedNI(b *testing.B) {
	cfg := absmodel.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := nonintf.CheckBounded(cfg, 1, 20, benchSeed)
		if !v.Proved {
			b.Fatalf("unexpected refutation: %s", v)
		}
	}
}

// BenchmarkUnwindingLemmas measures the exhaustive lemma enumeration.
func BenchmarkUnwindingLemmas(b *testing.B) {
	cfg := absmodel.DefaultConfig()
	m := absmodel.NewMachine(cfg, absmodel.SampleFuncs(benchSeed, cfg.DigestMod))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range nonintf.CheckHiStepLemma(m) {
			if !c.Holds {
				b.Fatal(c.Witness)
			}
		}
		if c := nonintf.CheckSwitchLemma(m); !c.Holds {
			b.Fatal(c.Witness)
		}
	}
}
