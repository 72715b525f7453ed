// Command tpperf is the repository benchmark: it runs one seeded
// workload through the engine's public entry points for a fixed time,
// checks every output it produced, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics) as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Workloads (WORKLOADS.md describes each, with the layers it loads):
//
//	sweep   cold attack sweeps via experiment.Run, one derived seed at a time
//	verify  PROOFS.md-shaped proof matrices
//	serve   closed-loop sessions of two tenants against serve.New on loopback
//
// The workload seed derives every input; the engine receives only the
// generated specs. Timing is the benchmark's own: spans are recorded
// around calls into each layer's public functions, never inside them,
// and no measured time reaches a report. Any failed check exits 1.
//
// Usage:
//
//	tpperf -workload sweep|verify|serve [-seed N] [-seconds S] [-trace 0|1] [-workdir DIR]
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"timeprot/internal/rng"
)

// workers is the engine parallelism and the client count: all load
// comes from one process with at most two workers and two clients.
const workers = 2

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// workload is one benchmark workload: its timed phase plus output
// checks, and for a served workload the set-up step that primes the
// store through the service (nil for the others).
type workload struct {
	prime func(b *bench, f *fixture) error
	run   func(b *bench, f *fixture) (*outcome, error)
}

var workloads = map[string]workload{
	"sweep":  {run: func(b *bench, f *fixture) (*outcome, error) { return runSweep(b, f, defaultSweep) }},
	"verify": {run: func(b *bench, f *fixture) (*outcome, error) { return runVerify(b, f, defaultVerify) }},
	"serve": {
		prime: func(b *bench, f *fixture) error { return primeServe(b, f, defaultServe) },
		run:   func(b *bench, f *fixture) (*outcome, error) { return runServe(b, f, defaultServe) },
	},
}

// bench is one run: a workload at a seed for a time box.
type bench struct {
	seed    uint64
	seconds time.Duration
	// tr is nil in an untraced run.
	tr *tracer
	// log receives the human-readable summary lines.
	log io.Writer
}

// derive returns the i-th seed of a named input stream of the run, so
// every generated input is a pure function of the workload seed.
func (b *bench) derive(stream string, i int) uint64 {
	h := b.seed
	for _, c := range []byte(stream) {
		h = rng.HashCombine(h, uint64(c))
	}
	return rng.HashCombine(h, uint64(i))
}

// done reports whether the time box has elapsed since start.
func (b *bench) done(start time.Time) bool { return time.Since(start) >= b.seconds }

// more reports whether a time-boxed or unit-counted loop should run
// unit i.
func (b *bench) more(start time.Time, i, maxUnits int) bool {
	if maxUnits > 0 {
		return i < maxUnits
	}
	return !b.done(start)
}

// outcome is what a workload's timed phase and checks produced.
type outcome struct {
	// ops counts the operations completed in the timed phase (opUnit
	// names them); wall is the timed phase's wall time. rate is the
	// workload's throughput normalised to the nominal host: the median
	// over the phase's units of each unit's rate scaled by the
	// reference time around it (see pacer). refMs is the median
	// reference time.
	ops    int
	opUnit string
	wall   time.Duration
	rate   float64
	refMs  float64
	// attempted counts operations tried, failed those that failed:
	// cell errors, failed or cancelled jobs, non-2xx responses, failed
	// store puts.
	attempted, failed int
	// own holds the workload's own end-to-end figures, which are
	// printed on every run and reported as per-layer metrics.
	own []figure
	// layer holds per-layer values only the workload can compute.
	layer map[string]float64
	// reports are the digests of every report the run produced.
	reports []reportDigest
	// problems are the failed output checks.
	problems []string
}

// figure is one named measurement with its sample count.
type figure struct {
	name  string
	value float64
	unit  string
	n     int
}

type reportDigest struct {
	label string
	sum   [sha256.Size]byte
}

func (o *outcome) digest(label string, body []byte) {
	o.reports = append(o.reports, reportDigest{label, sha256.Sum256(body)})
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"norm_ops_per_s", "1/s"},
}

// scenarioIDs are the static registry scenarios, T2–T17.
var scenarioIDs = []string{"T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T11", "T12", "T13", "T14", "T15", "T16", "T17"}

// proofModels are the registered prover model variants.
var proofModels = []string{"base", "wide-alphabet", "deep-schedule"}

// perLayer lists the traced run's metrics in BENCHMARK.json order. A
// layer a workload does not load reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sweep_cells_per_s", "1/s"},
		{"proof_cells_per_s", "1/s"},
		{"jobs_per_s", "1/s"},
		{"job_p50_ms", "ms"},
		{"job_p99_ms", "ms"},
		{"attacks.ns_per_simop", "ns"},
		{"attacks.simops", "count"},
	}
	for _, id := range scenarioIDs {
		defs = append(defs, metricDef{"attacks." + id + ".cell_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"experiment.worker_busy_frac", "frac"},
		metricDef{"experiment.tail_idle_s", "s"},
		metricDef{"store.get.count", "count"},
		metricDef{"store.get_us.p50", "us"},
		metricDef{"store.get_us.p99", "us"},
		metricDef{"store.get.hit_frac", "frac"},
		metricDef{"store.put.count", "count"},
		metricDef{"store.put_us.p50", "us"},
		metricDef{"store.put_us.p99", "us"},
		metricDef{"store.put.failed", "count"},
	)
	for _, m := range proofModels {
		defs = append(defs, metricDef{"prove." + m + ".cell_ms", "ms"})
	}
	defs = append(defs,
		metricDef{"prove.bounded_runs", "count"},
		metricDef{"serve.submit_ms.p50", "ms"},
		metricDef{"serve.queue_ms.p50", "ms"},
		metricDef{"serve.queue_ms.p99", "ms"},
		metricDef{"serve.run_ms.p50", "ms"},
		metricDef{"serve.run_ms.p99", "ms"},
		metricDef{"serve.result_ms.p50", "ms"},
		metricDef{"serve.result_ms.p99", "ms"},
		metricDef{"serve.hit_frac", "frac"},
		metricDef{"serve.join_frac", "frac"},
		metricDef{"serve.executed", "count"},
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.gc_cpu_frac", "frac"},
		metricDef{"bench.ref_ms", "ms"},
		metricDef{"bench.trace_overhead_frac", "frac"},
	)
	return defs
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runtimeSample is the slice of runtime/metrics the benchmark reads.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[2].Value.Float64()
	}
	return r
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// execute sets the workload up setupReps times (keeping the last
// fixture), runs its timed phase and checks, and assembles the result.
func (b *bench) execute(w workload, workdir string) (*result, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var setups []float64
	var f *fixture
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		f, err = newFixture(b, dir, w.prime)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			if err := f.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
			// Repeating set-up is the benchmark's own doing: hand the
			// discarded fixture's memory back so it cannot raise the
			// peak RSS of the run.
			debug.FreeOSMemory()
		}
	}

	rt0 := readRuntime()
	out, err := w.run(b, f)
	rt1 := readRuntime()
	if cerr := f.close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing fixture: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if out.failed > 0 {
		out.problem("%d of %d operations failed", out.failed, out.attempted)
	}

	res := &result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue),
	}
	e2e := []figure{
		{"setup_s", median(setups), "s", len(setups)},
		{"peak_rss_mb", rss, "MB", 1},
		{"norm_ops_per_s", out.rate, "1/s", out.ops},
	}
	for _, fg := range append(e2e, out.own...) {
		fmt.Fprintln(b.log, sampleLine(fg.name, fg.value, fg.unit, fg.n))
	}
	fmt.Fprintf(b.log, "%-34s %s over %.3fs\n", "ops", out.opUnit, out.wall.Seconds())
	fmt.Fprintln(b.log, sampleLine("bench.ref_ms", out.refMs, "ms", 1))
	fmt.Fprintln(b.log, sampleLine("failed_frac", frac(float64(out.failed), float64(out.attempted)), "frac", out.attempted))
	allocMB := float64(rt1.allocBytes-rt0.allocBytes) / 1e6
	gcFrac := frac(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	fmt.Fprintln(b.log, sampleLine("go.alloc_mb", allocMB, "MB", 1))
	fmt.Fprintln(b.log, sampleLine("go.gc_cpu_frac", gcFrac, "frac", 1))
	for _, r := range out.reports {
		fmt.Fprintf(b.log, "report %-50s sha256=%x\n", r.label, r.sum)
	}
	for _, p := range out.problems {
		fmt.Fprintf(b.log, "CHECK FAILED: %s\n", p)
	}

	if b.tr == nil {
		for _, fg := range e2e {
			res.Metrics[fg.name] = metricValue{fg.value, fg.unit}
		}
		return res, nil
	}

	layer := make(map[string]float64, len(perLayer))
	for _, fg := range out.own {
		layer[fg.name] = fg.value
	}
	for k, v := range out.layer {
		layer[k] = v
	}
	spanMetrics(b.tr, layer)
	for k, ks := range f.timing.snapshot() {
		fmt.Fprintf(b.log, "store %-8s gets=%d hits=%d puts=%d failed_puts=%d get_us.p50=%.1f put_us.p50=%.1f\n",
			kindNames[k], ks.Gets, ks.Hits, ks.Puts, ks.FailedPuts, median(micros(ks.GetTimes)), median(micros(ks.PutTimes)))
	}
	storeMetrics(f.timing.total(), layer)
	layer["bench.ref_ms"] = out.refMs
	layer["go.alloc_mb"] = allocMB
	layer["go.gc_cpu_frac"] = gcFrac
	layer["bench.trace_overhead_frac"] = frac(float64(b.tr.count())*float64(spanCost()), float64(out.wall))
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{layer[d.name], d.unit}
		delete(layer, d.name)
	}
	if len(layer) > 0 {
		return nil, fmt.Errorf("per-layer values outside BENCHMARK.json: %v", keys(layer))
	}
	path := filepath.Join(workdir, "trace.jsonl")
	if err := b.tr.writeFile(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.log, "spans: %d written to %s\n", b.tr.count(), path)
	return res, nil
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// spanMetrics derives the engine-layer metrics from the recorded spans.
func spanMetrics(tr *tracer, m map[string]float64) {
	var cellNs, cellOps float64
	perScenario := map[string][]float64{}
	for _, s := range tr.named("experiment.ExecuteCell") {
		cellNs += float64(s.dur())
		cellOps += float64(s.N)
		perScenario[s.Attr] = append(perScenario[s.Attr], float64(s.dur())/1e6)
	}
	m["attacks.ns_per_simop"] = frac(cellNs, cellOps)
	m["attacks.simops"] = cellOps
	for id, ms := range perScenario {
		m["attacks."+id+".cell_ms"] = median(ms)
	}

	// Runner utilisation over every cell phase: busy cell time against
	// phase wall time times workers, and the idle tail after each
	// worker's last cell.
	phaseEnd := map[int64]int64{}
	var capacity, busy, tail float64
	for _, p := range tr.named("bench.phase") {
		phaseEnd[p.ID] = p.End
		capacity += float64(p.dur()) * workers
	}
	for _, c := range tr.named("bench.cell") {
		busy += float64(c.dur())
	}
	for _, w := range tr.named("bench.worker") {
		tail += float64(phaseEnd[w.Parent] - w.End)
	}
	m["experiment.worker_busy_frac"] = frac(busy, capacity)
	m["experiment.tail_idle_s"] = tail / 1e9

	perModel := map[string][]float64{}
	var runs float64
	for _, s := range tr.named("experiment.ExecuteProofCell") {
		perModel[s.Attr] = append(perModel[s.Attr], float64(s.dur())/1e6)
		runs += float64(s.N)
	}
	for model, ms := range perModel {
		m["prove."+model+".cell_ms"] = median(ms)
	}
	m["prove.bounded_runs"] = runs
}

// storeMetrics reports the timing decorator's traffic over all kinds.
func storeMetrics(t kindStats, m map[string]float64) {
	m["store.get.count"] = float64(t.Gets)
	m["store.get_us.p50"] = median(micros(t.GetTimes))
	m["store.get_us.p99"] = quantile(micros(t.GetTimes), 0.99)
	m["store.get.hit_frac"] = frac(float64(t.Hits), float64(t.Gets))
	m["store.put.count"] = float64(t.Puts)
	m["store.put_us.p50"] = median(micros(t.PutTimes))
	m["store.put_us.p99"] = quantile(micros(t.PutTimes), 0.99)
	m["store.put.failed"] = float64(t.FailedPuts)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sweep, verify, or serve")
	seed := fs.Uint64("seed", 1, "workload seed; derives every generated input")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's stores and span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "tpperf: unknown workload %q (want %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "tpperf: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	b := &bench{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), log: stdout}
	if *traceFlag == 1 {
		b.tr = newTracer()
	}
	fmt.Fprintf(stdout, "tpperf workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)
	res, err := b.execute(w, *workdir)
	if err != nil {
		fmt.Fprintf(stderr, "tpperf: %v\n", err)
		return 1
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(res); err != nil {
		fmt.Fprintf(stderr, "tpperf: %v\n", err)
		return 1
	}
	stdout.Write(buf.Bytes())
	if !res.Correct {
		return 1
	}
	return 0
}
