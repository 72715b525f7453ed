package main

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"timeprot/internal/attacks"
	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
)

// warmSeed seeds the untimed warm-up cells; their rows are discarded.
const warmSeed = 0x5EED

// warmRounds is the requested rounds of a warm-up cell (each scenario
// raises it to its own minimum).
const warmRounds = 8

// fixture is everything a workload's timed phase runs against: a fresh
// packed store and one warmed CellContext per worker.
type fixture struct {
	dir string
	raw *store.Packed
	// st is what the workload hands the engine: raw, or raw behind the
	// timing decorator in a traced run.
	st     store.CellStore
	timing *timingStore
	ccs    []*attacks.CellContext
}

// newFixture sets up once: the store, the registry resolution, the
// warm-up pass over one variant of every static scenario on each
// worker's context (filling its machine pool), and the workload's
// priming step, if it has one.
func newFixture(b *bench, parent string, prime func(*bench, *fixture) error) (*fixture, error) {
	dir, err := os.MkdirTemp(parent, "store-")
	if err != nil {
		return nil, err
	}
	raw, err := store.OpenPacked(dir, store.PackedOptions{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f := &fixture{dir: dir, raw: raw, st: raw}
	if b.tr != nil {
		f.timing = newTimingStore(raw)
		f.st = f.timing
	}
	cells, err := experiment.Spec{Rounds: warmRounds, Seeds: []uint64{warmSeed}}.Cells()
	if err == nil {
		err = warmUp(f, firstVariants(cells))
	}
	if err == nil && prime != nil {
		err = prime(b, f)
	}
	if err != nil {
		return nil, errors.Join(err, f.close())
	}
	return f, nil
}

// firstVariants keeps the first variant cell of each scenario.
func firstVariants(cells []experiment.Cell) []experiment.Cell {
	var out []experiment.Cell
	for i, c := range cells {
		if i == 0 || c.ScenarioID != cells[i-1].ScenarioID {
			out = append(out, c)
		}
	}
	return out
}

// warmUp runs every cell on every worker's context, in parallel across
// workers.
func warmUp(f *fixture, cells []experiment.Cell) error {
	f.ccs = make([]*attacks.CellContext, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range f.ccs {
		f.ccs[w] = attacks.NewCellContext()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, c := range cells {
				if _, err := experiment.ExecuteCell(f.ccs[w], c); err != nil {
					errs[w] = fmt.Errorf("warm-up: %w", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close closes the store and removes it.
func (f *fixture) close() error {
	return errors.Join(f.raw.Close(), os.RemoveAll(f.dir))
}
