package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"timeprot/internal/attacks"
	"timeprot/internal/discover"
	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
)

// The small sizes every test workload runs at.
var (
	smallSweep  = sweepConfig{scenarios: []string{"T2", "T7"}, rounds: 8, maxUnits: 1}
	smallVerify = verifyConfig{families: 1, random: 0, maxUnits: 1}
	smallServe  = serveConfig{
		scenarios: []string{"T2"}, rounds: 8,
		ablations:     []string{fullProtection},
		proofFamilies: 1, proofRandom: 0,
		conformPairs: 1, conformRounds: 8, conformFamilies: 1,
		catalogueSeeds: 1, sessionJobs: 8, freshEvery: 4, maxSessions: 2,
	}
)

func openPacked(t *testing.T) *store.Packed {
	t.Helper()
	st, err := store.OpenPacked(t.TempDir(), store.PackedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// reports renders one report of each store-backed kind, cold, through
// st, and one discovery campaign report.
func reports(t *testing.T, st store.CellStore) [][]byte {
	t.Helper()
	var out [][]byte
	add := func(write func(io.Writer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	rep, err := experiment.Run(experiment.Spec{Scenarios: []string{"T2"}, Rounds: 8, Seeds: []uint64{7}},
		experiment.Options{Parallelism: workers, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	add(func(w io.Writer) error { return experiment.WriteJSON(w, rep) })
	pm, err := experiment.RunProofMatrix(experiment.ProofSpec{Ablations: []string{fullProtection, "no pad"},
		Models: []string{"base"}, Families: []int{1}, Random: 0, Seeds: []uint64{7}},
		experiment.ProofOptions{Parallelism: workers, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	add(func(w io.Writer) error { return experiment.WriteProofsJSON(w, pm) })
	cm, err := experiment.RunConformance(experiment.ConformanceSpec{Models: []string{"base"},
		Ablations: []string{fullProtection}, Pairs: 1, Rounds: 8, Families: 1, Seeds: []uint64{7}},
		experiment.ConformanceOptions{Parallelism: workers, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	add(func(w io.Writer) error { return experiment.WriteConformanceJSON(w, cm) })
	res, err := discover.Fuzz(discover.Options{Seed: 7, Budget: 2, Rounds: 8, Workers: workers,
		Corpus: discover.DefaultCorpus(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	add(func(w io.Writer) error { return discover.WriteReport(w, res) })
	return out
}

// TestTimingStoreByteIdentical checks that reports made through the
// timing decorator are byte-identical to reports made without it, cold
// and warm, and that it saw every entry kind's traffic.
func TestTimingStoreByteIdentical(t *testing.T) {
	plain := reports(t, openPacked(t))
	ts := newTimingStore(openPacked(t))
	cold := reports(t, ts)
	warm := reports(t, ts)
	for i := range plain {
		if !bytes.Equal(cold[i], plain[i]) || !bytes.Equal(warm[i], plain[i]) {
			t.Errorf("report %d differs through the timing store", i)
		}
	}
	for k, s := range ts.snapshot() {
		if s.Gets == 0 || s.Hits == 0 || s.Puts == 0 || s.FailedPuts != 0 {
			t.Errorf("%s: gets=%d hits=%d puts=%d failed=%d", kindNames[k], s.Gets, s.Hits, s.Puts, s.FailedPuts)
		}
		if len(s.GetTimes) != s.Gets || len(s.PutTimes) != s.Puts {
			t.Errorf("%s: %d get times for %d gets, %d put times for %d puts",
				kindNames[k], len(s.GetTimes), s.Gets, len(s.PutTimes), s.Puts)
		}
	}
}

// runSmall runs one workload at its small size, traced or not, and
// returns its outcome.
func runSmall(t *testing.T, name string, traced bool) *outcome {
	t.Helper()
	b := &bench{seed: 3, seconds: time.Hour, log: io.Discard}
	if traced {
		b.tr = newTracer()
	}
	var prime func(*bench, *fixture) error
	var run func(*bench, *fixture) (*outcome, error)
	switch name {
	case "sweep":
		run = func(b *bench, f *fixture) (*outcome, error) { return runSweep(b, f, smallSweep) }
	case "verify":
		run = func(b *bench, f *fixture) (*outcome, error) { return runVerify(b, f, smallVerify) }
	case "serve":
		prime = func(b *bench, f *fixture) error { return primeServe(b, f, smallServe) }
		run = func(b *bench, f *fixture) (*outcome, error) { return runServe(b, f, smallServe) }
	}
	f, err := newFixture(b, t.TempDir(), prime)
	if err != nil {
		t.Fatal(err)
	}
	out, err := run(b, f)
	if cerr := f.close(); cerr != nil {
		t.Error(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(out.problems) > 0 || out.failed > 0 {
		t.Fatalf("%s (traced=%v): failed=%d problems=%v", name, traced, out.failed, out.problems)
	}
	if len(out.reports) == 0 {
		t.Fatalf("%s produced no reports", name)
	}
	return out
}

// TestTracedMatchesUntraced checks that tracing cannot leak into
// outputs: traced and untraced runs of each workload produce the same
// report digests.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range []string{"sweep", "verify", "serve"} {
		t.Run(name, func(t *testing.T) {
			plain := runSmall(t, name, false)
			traced := runSmall(t, name, true)
			if len(plain.reports) != len(traced.reports) {
				t.Fatalf("%d reports untraced, %d traced", len(plain.reports), len(traced.reports))
			}
			for i := range plain.reports {
				if plain.reports[i] != traced.reports[i] {
					t.Errorf("report %q untraced vs %q traced: %x vs %x", plain.reports[i].label,
						traced.reports[i].label, plain.reports[i].sum, traced.reports[i].sum)
				}
			}
		})
	}
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json lists exactly
// the workloads and metrics the command reports, and that the metric
// catalogue covers the registries it is named after.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, want)
	}
	check := func(what string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command reports %d", what, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), command reports %s (%s)",
					what, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)

	var ids []string
	for _, s := range attacks.Scenarios() {
		if !s.Dynamic {
			ids = append(ids, s.ID)
		}
	}
	if !equal(ids, scenarioIDs) {
		t.Errorf("static scenarios %v, metric catalogue has %v", ids, scenarioIDs)
	}
	var models []string
	for _, m := range experiment.ProofModels() {
		models = append(models, m.Name)
	}
	if !equal(models, proofModels) {
		t.Errorf("proof models %v, metric catalogue has %v", models, proofModels)
	}
}

func equal(a, b []string) bool {
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

// TestRejectsBadFlags checks that argument errors exit 2 without a
// result line.
func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "sweep", "-seconds", "0"},
		{"-workload", "sweep", "-trace", "2"},
	} {
		var stdout bytes.Buffer
		if code := run(args, &stdout, io.Discard); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
