package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"timeprot/internal/experiment"
)

// sweepConfig sizes the sweep workload.
type sweepConfig struct {
	// scenarios selects the matrix (nil = every static scenario).
	scenarios []string
	rounds    int
	// maxUnits, when positive, runs exactly that many seeds instead of
	// filling the time box.
	maxUnits int
}

// defaultSweep is every registry scenario T2–T17 (41 variant cells per
// seed) at rounds 60, as EXPERIMENTS.md is produced.
var defaultSweep = sweepConfig{rounds: 60}

// runSweep runs cold sweeps, one derived seed each, into the fixture's
// fresh store until the time box is full, then checks that a warm
// replay of each from the store executes nothing and reproduces the
// report byte for byte.
func runSweep(b *bench, f *fixture, cfg sweepConfig) (*outcome, error) {
	out := &outcome{opUnit: "attack cells"}
	var specs []experiment.Spec
	var bodies [][]byte
	pc := newPacer()
	start := time.Now()
	for i := 0; b.more(start, i, cfg.maxUnits); i++ {
		t := time.Now()
		spec := experiment.Spec{Scenarios: cfg.scenarios, Rounds: cfg.rounds, Seeds: []uint64{b.derive("sweep", i)}}
		cells, err := spec.Cells()
		if err != nil {
			return nil, err
		}
		var body []byte
		var failed int
		if b.tr == nil {
			body, failed, err = sweepUnit(f, spec)
		} else {
			body, failed, err = sweepUnitTraced(b, f, spec, cells, int64(i+1))
		}
		if err != nil {
			return nil, err
		}
		pc.unit(len(cells), time.Since(t))
		out.ops += len(cells)
		out.attempted += len(cells)
		out.failed += failed
		specs = append(specs, spec)
		bodies = append(bodies, body)
	}
	out.wall = time.Since(start)
	out.rate, out.refMs = pc.normalised(), pc.refMs()
	out.own = []figure{{"sweep_cells_per_s", pc.raw(), "1/s", out.ops}}

	for i, spec := range specs {
		var cs experiment.CacheStats
		rep, err := experiment.Run(spec, experiment.Options{Parallelism: workers, Store: f.raw, Stats: &cs})
		if err != nil {
			return nil, fmt.Errorf("warm replay: %w", err)
		}
		warm, err := reportJSON(rep)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("sweep seed=%d", spec.Seeds[0])
		out.digest(label, bodies[i])
		if cs.Executed != 0 {
			out.problem("%s: warm replay executed %d cells, want 0", label, cs.Executed)
		}
		if !bytes.Equal(warm, bodies[i]) {
			out.problem("%s: warm replay report differs from the cold report", label)
		}
	}
	return out, nil
}

// sweepUnit is one cold sweep through experiment.Run.
func sweepUnit(f *fixture, spec experiment.Spec) (body []byte, failed int, err error) {
	var cs experiment.CacheStats
	rep, err := experiment.Run(spec, experiment.Options{Parallelism: workers, Store: f.st, Stats: &cs})
	if err != nil {
		return nil, 0, err
	}
	body, err = reportJSON(rep)
	return body, cellErrors(rep) + cs.FailedPuts, err
}

// sweepUnitTraced drives the same cells through the engine's per-cell
// surface — CellKey, store Get, ExecuteCell, Put on one CellContext per
// worker, the surface the sweep service schedules with — and then
// assembles the report warm through experiment.Run, as the service
// does.
func sweepUnitTraced(b *bench, f *fixture, spec experiment.Spec, cells []experiment.Cell, trace int64) (body []byte, failed int, err error) {
	tr := b.tr
	var fails atomic.Int64
	runCells(tr, trace, len(cells), func(w, i int, parent int64) {
		c := cells[i]
		s := tr.now()
		key, ok := experiment.CellKey(c)
		tr.add(span{Parent: parent, Trace: trace, Name: "experiment.CellKey", Worker: w, Start: s})
		if !ok {
			fails.Add(1)
			return
		}
		s = tr.now()
		_, hit := f.st.Get(key)
		tr.add(span{Parent: parent, Trace: trace, Name: "store.Get", Attr: "cell", Worker: w, Start: s})
		if hit {
			return
		}
		s = tr.now()
		row, err := experiment.ExecuteCell(f.ccs[w], c)
		tr.add(span{Parent: parent, Trace: trace, Name: "experiment.ExecuteCell", Attr: c.ScenarioID, N: row.SimOps, Worker: w, Start: s})
		if err != nil {
			fails.Add(1)
			return
		}
		s = tr.now()
		err = f.st.Put(key, row)
		tr.add(span{Parent: parent, Trace: trace, Name: "store.Put", Attr: "cell", Worker: w, Start: s})
		if err != nil {
			fails.Add(1)
		}
	})
	var cs experiment.CacheStats
	s := tr.now()
	rep, err := experiment.Run(spec, experiment.Options{Parallelism: workers, Store: f.st, Stats: &cs})
	tr.add(span{Trace: trace, Name: "experiment.Run", Start: s})
	if err != nil {
		return nil, 0, err
	}
	body, err = reportJSON(rep)
	return body, int(fails.Load()) + cs.FailedPuts, err
}

func reportJSON(rep *experiment.Report) ([]byte, error) {
	var buf bytes.Buffer
	err := experiment.WriteJSON(&buf, rep)
	return buf.Bytes(), err
}

func cellErrors(rep *experiment.Report) int {
	n := 0
	for _, c := range rep.Cells {
		if c.Err != "" {
			n++
		}
	}
	return n
}
