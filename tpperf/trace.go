package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call (the program itself is not
// instrumented). Spans of one unit of work (a sweep seed, a proof
// matrix, a served job) share Trace; Parent links a call to the span
// that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	// Attr qualifies the call (scenario ID, proof model, store kind).
	Attr string `json:"attr,omitempty"`
	// N is a count recorded at the same boundary (simulated ops,
	// bounded runs), so ratios are measured where the work happens.
	N      uint64 `json:"n,omitempty"`
	Worker int    `json:"worker"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer is an
// untraced run: the workloads branch on it before timing anything.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the current offset from the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// id reserves a span ID, so a parent's ID is known to its children
// before the parent span ends.
func (t *tracer) id() int64 { return t.nextID.Add(1) }

// add records a finished span, assigning an ID when it has none.
func (t *tracer) add(s span) int64 {
	if s.ID == 0 {
		s.ID = t.id()
	}
	if s.End == 0 {
		s.End = t.now()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// named returns the recorded spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// count is the number of recorded spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost measures what recording one span costs — two clock reads
// and an append under the lock — on a scratch tracer, as the median of
// several batches.
func spanCost() time.Duration {
	const batch = 20000
	costs := make([]float64, 5)
	for i := range costs {
		t := newTracer()
		t.spans = make([]span, 0, batch)
		start := time.Now()
		for j := 0; j < batch; j++ {
			s0 := t.now()
			t.add(span{Name: "calibrate", Start: s0})
		}
		costs[i] = float64(time.Since(start)) / batch
	}
	return time.Duration(median(costs))
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sampleLine formats a metric for the human-readable summary.
func sampleLine(name string, v float64, unit string, n int) string {
	return fmt.Sprintf("%-34s %14.6g %-6s n=%d", name, v, unit, n)
}
