package main

import (
	"sync"
	"time"
)

// refTable is the reference kernel's working set per worker, 256 KiB,
// so the kernel feels the host's cache contention as well as its clock.
const refTable = 1 << 15

// refSteps is the reference kernel's work per worker in one pass,
// about 4 ms on a 2-vCPU Xeon VM.
const refSteps = 1 << 19

// refPasses is how many passes one reference measurement takes; it
// reports their median, so one pass that loses its CPU to a
// preemption does not move it.
const refPasses = 5

// refTime measures the host's current speed: the median of refPasses
// passes of a fixed reference kernel. The kernel is the benchmark's own
// code, so no change to the program moves it; only the host's speed
// does.
func refTime() time.Duration {
	passes := make([]float64, refPasses)
	for i := range passes {
		passes[i] = float64(refPass())
	}
	return time.Duration(median(passes))
}

// refPass is one pass of the reference kernel on every worker at once.
// It returns the mean of the workers' own times rather than the time of
// the slowest: a CPU lost to another process for a while costs the
// program that share of its throughput, not a whole pass.
func refPass() time.Duration {
	var wg sync.WaitGroup
	times := make([]time.Duration, workers)
	sink := make([]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := time.Now()
			t := make([]uint64, refTable)
			x := uint64(w) + 0x9E3779B97F4A7C15
			for i := 0; i < refSteps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				j := x & (refTable - 1)
				t[j] += x
				x += t[(j*31)&(refTable-1)]
			}
			sink[w] = x
			times[w] = time.Since(start)
		}(w)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range times {
		sum += d
	}
	return sum / workers
}

// refNominal is the reference time of the nominal host that
// normalised rates are quoted for.
const refNominal = 5 * time.Millisecond

// pacer times a workload's units and runs the reference kernel at
// every boundary between them, so each unit's rate can be read against
// the host's speed around it. A shared host's speed drifts by tens of
// per cent within minutes, far more than a regression bound; scaling
// each unit's rate by the reference time around it cancels the drift
// and leaves the program's own speed.
type pacer struct {
	last  time.Duration
	rates []float64 // raw unit rates, operations per second
	refs  []float64 // reference time around each unit, seconds
}

func newPacer() *pacer { return &pacer{last: refTime()} }

// unit records one unit of n operations that took d, then runs the
// reference kernel again; the unit's reference time is the mean of the
// runs before and after it.
func (p *pacer) unit(n int, d time.Duration) {
	next := refTime()
	p.rates = append(p.rates, float64(n)/d.Seconds())
	p.refs = append(p.refs, (p.last+next).Seconds()/2)
	p.last = next
}

// raw is the median unit rate as measured.
func (p *pacer) raw() float64 { return median(p.rates) }

// normalised is the median unit rate, each scaled to the nominal host:
// operations per second where the reference kernel takes refNominal.
func (p *pacer) normalised() float64 {
	xs := make([]float64, len(p.rates))
	for i, r := range p.rates {
		xs[i] = r * p.refs[i] / refNominal.Seconds()
	}
	return median(xs)
}

// refMs is the median reference time, in milliseconds.
func (p *pacer) refMs() float64 { return median(p.refs) * 1e3 }
