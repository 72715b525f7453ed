package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"timeprot/internal/experiment"
)

// verifyConfig sizes the verify workload.
type verifyConfig struct {
	// families and random size every proof cell; the matrix is every
	// ablation over every model variant.
	families, random int
	// maxUnits, when positive, runs exactly that many proof matrices
	// instead of filling the time box.
	maxUnits int
}

// defaultVerify is the PROOFS.md matrix shape: families 5, random 200,
// 21 cells.
var defaultVerify = verifyConfig{families: 5, random: 200}

// fullProtection is the one ablation row every model must prove.
const fullProtection = "full protection"

// runVerify runs proof matrices, each at a seed derived from the
// workload seed, until the time box is full. Every matrix must prove
// full protection on every model and refute every ablation.
func runVerify(b *bench, f *fixture, cfg verifyConfig) (*outcome, error) {
	out := &outcome{opUnit: "proof cells"}
	pc := newPacer()
	start := time.Now()
	for i := 0; b.more(start, i, cfg.maxUnits); i++ {
		seed := b.derive("verify", i)
		spec := experiment.ProofSpec{Families: []int{cfg.families}, Random: cfg.random, Seeds: []uint64{seed}}
		t := time.Now()
		var m *experiment.ProofMatrix
		var failed int
		var err error
		if b.tr == nil {
			m, failed, err = proofUnit(f, spec)
		} else {
			m, failed, err = proofUnitTraced(b, f, spec, int64(i+1))
		}
		if err != nil {
			return nil, err
		}
		pc.unit(len(m.Cells), time.Since(t))
		out.ops += len(m.Cells)
		out.attempted += len(m.Cells)
		out.failed += failed
		checkVerdicts(out, m)
		var buf bytes.Buffer
		if err := experiment.WriteProofsJSON(&buf, m); err != nil {
			return nil, err
		}
		out.digest(fmt.Sprintf("proofs seed=%d", seed), buf.Bytes())
	}
	out.wall = time.Since(start)
	out.rate, out.refMs = pc.normalised(), pc.refMs()
	out.own = []figure{{"proof_cells_per_s", pc.raw(), "1/s", out.ops}}
	return out, nil
}

// checkVerdicts applies PROOFS.md's expectation: full protection is
// proved on every model, every ablation is refuted.
func checkVerdicts(out *outcome, m *experiment.ProofMatrix) {
	for _, c := range m.Cells {
		switch {
		case c.Err != "":
			out.problem("proof %s/%s seed=%d failed: %s", c.Model, c.Ablation, c.Seed, c.Err)
		case c.Ablation == fullProtection && !c.Proved:
			out.problem("proof %s/%s seed=%d: full protection not proved", c.Model, c.Ablation, c.Seed)
		case c.Ablation != fullProtection && c.Proved:
			out.problem("proof %s/%s seed=%d: ablation not refuted", c.Model, c.Ablation, c.Seed)
		}
	}
}

// proofUnit is one proof matrix through experiment.RunProofMatrix.
func proofUnit(f *fixture, spec experiment.ProofSpec) (*experiment.ProofMatrix, int, error) {
	var cs experiment.CacheStats
	m, err := experiment.RunProofMatrix(spec, experiment.ProofOptions{Parallelism: workers, Store: f.st, Stats: &cs})
	if err != nil {
		return nil, 0, err
	}
	return m, proofErrors(m) + cs.FailedPuts, nil
}

// proofUnitTraced drives the matrix's cells through the per-cell
// surface — ProofKey, store GetProof, ExecuteProofCell, PutProof — and
// assembles the matrix warm through RunProofMatrix.
func proofUnitTraced(b *bench, f *fixture, spec experiment.ProofSpec, trace int64) (*experiment.ProofMatrix, int, error) {
	tr := b.tr
	cells, err := spec.Cells()
	if err != nil {
		return nil, 0, err
	}
	var fails atomic.Int64
	runCells(tr, trace, len(cells), func(w, i int, parent int64) {
		c := cells[i]
		s := tr.now()
		key := experiment.ProofKey(c)
		tr.add(span{Parent: parent, Trace: trace, Name: "experiment.ProofKey", Worker: w, Start: s})
		s = tr.now()
		_, hit := f.st.GetProof(key)
		tr.add(span{Parent: parent, Trace: trace, Name: "store.GetProof", Attr: "proof", Worker: w, Start: s})
		if hit {
			return
		}
		s = tr.now()
		p, err := experiment.ExecuteProofCell(c)
		tr.add(span{Parent: parent, Trace: trace, Name: "experiment.ExecuteProofCell", Attr: c.Model, N: uint64(p.BoundedRuns), Worker: w, Start: s})
		if err != nil {
			fails.Add(1)
			return
		}
		s = tr.now()
		err = f.st.PutProof(key, p)
		tr.add(span{Parent: parent, Trace: trace, Name: "store.PutProof", Attr: "proof", Worker: w, Start: s})
		if err != nil {
			fails.Add(1)
		}
	})
	var cs experiment.CacheStats
	s := tr.now()
	m, err := experiment.RunProofMatrix(spec, experiment.ProofOptions{Parallelism: workers, Store: f.st, Stats: &cs})
	tr.add(span{Trace: trace, Name: "experiment.RunProofMatrix", Start: s})
	if err != nil {
		return nil, 0, err
	}
	return m, int(fails.Load()) + cs.FailedPuts, nil
}

func proofErrors(m *experiment.ProofMatrix) int {
	n := 0
	for _, c := range m.Cells {
		if c.Err != "" {
			n++
		}
	}
	return n
}
