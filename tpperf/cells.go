package main

import (
	"sync"
)

// runCells is the traced run's cell scheduler: n work items, taken in
// matrix order by one goroutine per worker, each item under a
// "bench.cell" span. It records a "bench.phase" span over the whole
// scheduling phase and a "bench.worker" span per worker, from its
// start to the end of its last item, so runner utilisation and the
// idle tail can be read off the trace.
func runCells(tr *tracer, trace int64, n int, do func(w, i int, parent int64)) {
	phase := tr.id()
	start := tr.now()
	items := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			w0 := tr.now()
			last := w0
			for i := range items {
				cell := tr.id()
				c0 := tr.now()
				do(w, i, cell)
				last = tr.now()
				tr.add(span{ID: cell, Parent: phase, Trace: trace, Name: "bench.cell", Worker: w, Start: c0, End: last})
			}
			tr.add(span{Parent: phase, Trace: trace, Name: "bench.worker", Worker: w, Start: w0, End: last})
		}(w)
	}
	for i := 0; i < n; i++ {
		items <- i
	}
	close(items)
	wg.Wait()
	tr.add(span{ID: phase, Trace: trace, Name: "bench.phase", Start: start})
}
