package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"timeprot/internal/cliutil"
	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
	"timeprot/internal/rng"
	"timeprot/internal/serve"
	"timeprot/internal/serve/loadtest"
)

// serveConfig sizes the serve workload's spec catalogue and schedule.
type serveConfig struct {
	// scenarios and rounds shape the catalogue's sweep spec.
	scenarios []string
	rounds    int
	// ablations selects the rows of the catalogue's proof and
	// conformance specs (base model only); proofFamilies, proofRandom
	// and the conform* fields size them.
	ablations                                    []string
	proofFamilies, proofRandom                   int
	conformPairs, conformRounds, conformFamilies int
	// catalogueSeeds is how many seeds the repeated catalogue spans.
	catalogueSeeds int
	// sessionJobs is each client's job count in one session. The
	// service keeps every job's record and report until it is closed,
	// so the timed phase is a run of sessions, each on a new service
	// over the same store: memory stays bounded by one session's jobs
	// however long the run.
	sessionJobs int
	// freshEvery makes every freshEvery-th submission of each client a
	// fresh key, submitted by both clients at once.
	freshEvery int
	// maxSessions, when positive, runs exactly that many sessions
	// instead of filling the time box.
	maxSessions int
}

// defaultServe keeps cold jobs small (7 sweep cells, 2 proof cells, 4
// conformance cells) and rare (one fresh slot per session of 1024 jobs
// per client), so warm traffic fills most of the run.
var defaultServe = serveConfig{
	scenarios: []string{"T2", "T4", "T5"}, rounds: 60,
	ablations:     []string{fullProtection, "no flush"},
	proofFamilies: 1, proofRandom: 0,
	conformPairs: 2, conformRounds: 12, conformFamilies: 1,
	catalogueSeeds: 2, sessionJobs: 1024, freshEvery: 1024,
}

// entry is one submittable request with its identity.
type entry struct {
	label string
	req   serve.SubmitRequest
}

// entries returns the five requests of one seed: the full sweep, its
// two shards, the proof matrix, and the conformance matrix.
func (cfg serveConfig) entries(seed uint64) []entry {
	sw := experiment.Spec{Scenarios: cfg.scenarios, Rounds: cfg.rounds, Seeds: []uint64{seed}}
	pr := experiment.ProofSpec{Ablations: cfg.ablations, Models: []string{"base"}, Families: []int{cfg.proofFamilies},
		Random: cfg.proofRandom, Seeds: []uint64{seed}}
	co := experiment.ConformanceSpec{Models: []string{"base"}, Ablations: cfg.ablations, Pairs: cfg.conformPairs, Rounds: cfg.conformRounds,
		Families: cfg.conformFamilies, Seeds: []uint64{seed}}
	shard := func(i int) entry {
		return entry{
			label: fmt.Sprintf("sweep seed=%d shard=%d/2", seed, i),
			req:   serve.SubmitRequest{Kind: serve.KindSweep, Shard: fmt.Sprintf("%d/2", i), Sweep: &sw},
		}
	}
	return []entry{
		{label: fmt.Sprintf("sweep seed=%d", seed), req: serve.SubmitRequest{Kind: serve.KindSweep, Sweep: &sw}},
		shard(0),
		shard(1),
		{label: fmt.Sprintf("proof seed=%d", seed), req: serve.SubmitRequest{Kind: serve.KindProof, Proof: &pr}},
		{label: fmt.Sprintf("conform seed=%d", seed), req: serve.SubmitRequest{Kind: serve.KindConform, Conform: &co}},
	}
}

// freshPairs are the entry indices the two clients submit at one fresh
// slot, rotating through the kinds: full sweep beside one shard (so
// part of the matrix is joined), then the same proof matrix and the
// same conformance matrix from both (so all of it is).
var freshPairs = [3][workers]int{{0, 2}, {3, 3}, {4, 4}}

// freshCells is how many distinct cells a fresh slot submits: the
// cells of its full request, which the other client's request (the
// same request, or one of its shards) repeats.
func freshCells(e *entry) (int, error) {
	var n int
	var err error
	switch e.req.Kind {
	case serve.KindSweep:
		var cells []experiment.Cell
		cells, err = e.req.Sweep.Cells()
		n = len(cells)
	case serve.KindProof:
		var cells []experiment.ProofCell
		cells, err = e.req.Proof.Cells()
		n = len(cells)
	case serve.KindConform:
		var cells []experiment.ConformanceCell
		cells, err = e.req.Conform.Cells()
		n = len(cells)
	default:
		err = fmt.Errorf("unknown kind %q", e.req.Kind)
	}
	return n, err
}

// keepOpen hands the service the fixture's store without letting the
// service's Close close it, so sessions can follow one another on it.
type keepOpen struct{ store.CellStore }

func (keepOpen) Close() error { return nil }

// service is the sweep service on a loopback listener.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
}

// startService starts the sweep service over st on a loopback port
// and waits until it answers.
func startService(st store.CellStore) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: serve.New(keepOpen{st}, serve.Config{Workers: workers}), served: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	resp, err := http.Get(s.base + "/v1/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("health check: %s", resp.Status)
		}
	}
	if err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// stop shuts the listener and the service down and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	errs := []error{s.hs.Shutdown(ctx)}
	cancel()
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, s.srv.Close())
	http.DefaultClient.CloseIdleConnections()
	return errors.Join(errs...)
}

// jobRecord is one closed-loop job as a client saw it.
type jobRecord struct {
	entry *entry
	// total runs from submit to the report received; submit and
	// result are the two request round trips.
	total, submit, result time.Duration
	// queue (submit → "running" event) and run ("running" → terminal
	// event) are read off the stream in a traced run only.
	queue, run time.Duration
	traced     bool
	// executed, hits and joined count the job's cell events by source.
	executed, hits, joined int
	sum                    [sha256.Size]byte
	err                    error
}

// barrier holds the clients at each fresh slot, so fresh keys arrive
// together.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiting int
	gen     int
}

func newBarrier() *barrier {
	br := &barrier{}
	br.cond = sync.NewCond(&br.mu)
	return br
}

// await blocks until every client has arrived.
func (br *barrier) await() {
	br.mu.Lock()
	defer br.mu.Unlock()
	gen := br.gen
	br.waiting++
	if br.waiting == workers {
		br.waiting = 0
		br.gen++
		br.cond.Broadcast()
		return
	}
	for gen == br.gen {
		br.cond.Wait()
	}
}

// tenant is one closed-loop client.
type tenant struct {
	b    *bench
	lc   *loadtest.Client
	base string
}

// catalogue is the repeated part of the workload: the five requests of
// each catalogue seed.
func (cfg serveConfig) catalogue(b *bench) []entry {
	var out []entry
	for i := 0; i < cfg.catalogueSeeds; i++ {
		out = append(out, cfg.entries(b.derive("serve-catalogue", i))...)
	}
	return out
}

// primeServe submits every catalogue request once to a service over
// the fixture's store and waits for all of them, so the timed phase
// starts with the catalogue in the store.
func primeServe(b *bench, f *fixture, cfg serveConfig) (err error) {
	svc, err := startService(f.st)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, svc.stop()) }()
	lc := loadtest.NewClient(svc.base)
	var ids []string
	for _, e := range cfg.catalogue(b) {
		sub, err := lc.Submit(e.req)
		if err != nil {
			return fmt.Errorf("priming %s: %w", e.label, err)
		}
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		st, err := lc.Wait(id)
		if err != nil {
			return fmt.Errorf("priming job %s: %w", id, err)
		}
		if st.State != serve.StateDone {
			return fmt.Errorf("priming job %s ended %s: %s", id, st.State, st.Error)
		}
	}
	return nil
}

// runServe runs closed-loop sessions until the time box is full. In a
// session two tenants drive a new service over the fixture's store:
// each submits a seeded sequence drawn from the catalogue, follows the
// job's stream to its end, and fetches the report before submitting
// again. Every served report must equal the cold single-process report
// of its spec, and each session's service must have executed exactly
// the cells of its fresh keys, once each.
func runServe(b *bench, f *fixture, cfg serveConfig) (*outcome, error) {
	catalogue := cfg.catalogue(b)
	out := &outcome{opUnit: "jobs", layer: map[string]float64{}}
	var records []jobRecord
	pc := newPacer()
	start := time.Now()
	for s := 0; b.more(start, s, cfg.maxSessions); s++ {
		recs, want, stats, d, err := cfg.session(b, f, catalogue, s)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", s, err)
		}
		if stats.Executed != want {
			out.problem("session %d: service executed %d cells for %d fresh cells", s, stats.Executed, want)
		}
		// Each executed cell is one store write-back attempted.
		out.attempted += stats.Executed
		out.failed += stats.FailedPuts
		pc.unit(len(recs), d)
		records = append(records, recs...)
	}
	out.wall = time.Since(start)
	out.rate, out.refMs = pc.normalised(), pc.refMs()

	var totals, submits, queues, runs, results []float64
	var cells, executed, hits, joined int
	// Fresh entries are distinct values per client; the label is what
	// lets both clients' copies of one request meet.
	served := map[string]map[[sha256.Size]byte]int{}
	byLabel := map[string]*entry{}
	for _, rec := range records {
		out.attempted++
		if rec.err != nil {
			out.failed++
			out.problem("%s: %v", rec.entry.label, rec.err)
			continue
		}
		out.ops++
		totals = append(totals, float64(rec.total)/1e6)
		submits = append(submits, float64(rec.submit)/1e6)
		results = append(results, float64(rec.result)/1e6)
		if rec.traced {
			queues = append(queues, float64(rec.queue)/1e6)
			runs = append(runs, float64(rec.run)/1e6)
		}
		cells += rec.executed + rec.hits + rec.joined
		executed += rec.executed
		hits += rec.hits
		joined += rec.joined
		l := rec.entry.label
		if byLabel[l] == nil {
			byLabel[l] = rec.entry
			served[l] = map[[sha256.Size]byte]int{}
		}
		served[l][rec.sum]++
	}
	out.own = []figure{
		{"jobs_per_s", pc.raw(), "1/s", out.ops},
		{"job_p50_ms", median(totals), "ms", len(totals)},
		{"job_p99_ms", quantile(totals, 0.99), "ms", len(totals)},
	}
	out.layer["serve.submit_ms.p50"] = median(submits)
	out.layer["serve.queue_ms.p50"] = median(queues)
	out.layer["serve.queue_ms.p99"] = quantile(queues, 0.99)
	out.layer["serve.run_ms.p50"] = median(runs)
	out.layer["serve.run_ms.p99"] = quantile(runs, 0.99)
	out.layer["serve.result_ms.p50"] = median(results)
	out.layer["serve.result_ms.p99"] = quantile(results, 0.99)
	out.layer["serve.hit_frac"] = frac(float64(hits), float64(cells))
	out.layer["serve.join_frac"] = frac(float64(joined), float64(cells))
	out.layer["serve.executed"] = float64(executed)

	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		e := byLabel[l]
		cold, err := coldReport(e)
		if err != nil {
			return nil, fmt.Errorf("cold report %s: %w", l, err)
		}
		want := sha256.Sum256(cold)
		n := 0
		for sum, count := range served[l] {
			n += count
			if sum != want {
				out.problem("%s: %d served reports differ from the cold report", l, count)
			}
		}
		out.reports = append(out.reports, reportDigest{fmt.Sprintf("serve %s jobs=%d", l, n), want})
	}
	return out, nil
}

// session runs one session: a new service over the fixture's store,
// sessionJobs closed-loop jobs from each tenant, fresh slots at every
// freshEvery-th job of each. It returns the jobs' records, the number
// of distinct fresh cells the service must have executed, the
// service's stats, and the wall time of the closed loop.
func (cfg serveConfig) session(b *bench, f *fixture, catalogue []entry, s int) (recs []jobRecord, want int, st serve.Stats, d time.Duration, err error) {
	svc, err := startService(f.st)
	if err != nil {
		return nil, 0, st, 0, err
	}
	defer func() { err = errors.Join(err, svc.stop()) }()
	slots := cfg.sessionJobs / cfg.freshEvery
	for k := s * slots; k < (s+1)*slots; k++ {
		fresh := cfg.entries(b.derive("serve-fresh", k))
		n, err := freshCells(&fresh[freshPairs[k%len(freshPairs)][0]])
		if err != nil {
			return nil, 0, st, 0, err
		}
		want += n
	}
	br := newBarrier()
	byClient := make([][]jobRecord, workers)
	t := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tn := &tenant{b: b, lc: loadtest.NewClient(svc.base), base: svc.base}
			r := rng.New(b.derive("serve-client", s*workers+c))
			for j := 0; j < cfg.sessionJobs; j++ {
				var e *entry
				if j%cfg.freshEvery == cfg.freshEvery-1 {
					br.await()
					k := s*slots + j/cfg.freshEvery
					fresh := cfg.entries(b.derive("serve-fresh", k))
					e = &fresh[freshPairs[k%len(freshPairs)][c]]
				} else {
					e = &catalogue[r.Intn(len(catalogue))]
				}
				byClient[c] = append(byClient[c], tn.job(e, int64(s)<<40|int64(c)<<32|int64(j+1)))
			}
		}(c)
	}
	wg.Wait()
	d = time.Since(t)
	st, err = loadtest.NewClient(svc.base).Stats()
	if err != nil {
		return nil, 0, st, 0, fmt.Errorf("stats: %w", err)
	}
	for _, rs := range byClient {
		recs = append(recs, rs...)
	}
	return recs, want, st, d, nil
}

// job runs one closed-loop job and records what the client saw.
func (t *tenant) job(e *entry, trace int64) jobRecord {
	rec := jobRecord{entry: e, traced: t.b.tr != nil}
	t0 := time.Now()
	sub, err := t.lc.Submit(e.req)
	t1 := time.Now()
	rec.submit = t1.Sub(t0)
	if err != nil {
		rec.err = fmt.Errorf("submit: %w", err)
		return rec
	}
	resp, err := http.Get(t.base + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		rec.err = fmt.Errorf("stream: %w", err)
		return rec
	}
	var running, ended time.Time
	state := ""
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("stream: %s", resp.Status)
	} else if rec.traced {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			now := time.Now()
			var ev serve.Event
			if err = json.Unmarshal(sc.Bytes(), &ev); err != nil {
				break
			}
			switch ev.Type {
			case "state":
				state = ev.State
				if ev.State == serve.StateRunning && running.IsZero() {
					running = now
				} else if ev.State != serve.StateRunning && ev.State != serve.StateQueued {
					ended = now
				}
			case "cell", "error":
				switch ev.Source {
				case serve.SourceExecuted:
					rec.executed++
				case serve.SourceStore:
					rec.hits++
				case serve.SourceJoined:
					rec.joined++
				}
			}
		}
		if err == nil {
			err = sc.Err()
		}
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	if err != nil {
		rec.err = fmt.Errorf("stream: %w", err)
		return rec
	}
	t2 := time.Now()
	body, err := t.lc.Result(sub.ID)
	t3 := time.Now()
	rec.result = t3.Sub(t2)
	rec.total = t3.Sub(t0)
	if err != nil {
		rec.err = fmt.Errorf("result (job %s): %w", state, err)
		return rec
	}
	rec.sum = sha256.Sum256(body)
	if rec.traced {
		if running.IsZero() || ended.IsZero() {
			rec.err = fmt.Errorf("stream ended without running and terminal states")
			return rec
		}
		rec.queue = running.Sub(t0)
		rec.run = ended.Sub(running)
		tr := t.b.tr
		at := func(x time.Time) int64 { return int64(x.Sub(tr.epoch)) }
		job := tr.id()
		tr.add(span{Parent: job, Trace: trace, Name: "loadtest.Client.Submit", Attr: e.req.Kind, Start: at(t0), End: at(t1)})
		tr.add(span{Parent: job, Trace: trace, Name: "serve.stream", Attr: e.req.Kind, Start: at(t1), End: at(t2)})
		tr.add(span{Parent: job, Trace: trace, Name: "loadtest.Client.Result", Attr: e.req.Kind, Start: at(t2), End: at(t3)})
		tr.add(span{ID: job, Trace: trace, Name: "bench.job", Attr: e.label, Start: at(t0), End: at(t3)})
	}
	return rec
}

// coldReport is the report a cold single-process engine run of the
// entry emits, without store or service.
func coldReport(e *entry) ([]byte, error) {
	shard, err := cliutil.ParseShard(e.req.Shard)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	switch e.req.Kind {
	case serve.KindSweep:
		if e.req.Shard == "" {
			return loadtest.ColdReport(*e.req.Sweep)
		}
		rep, err := experiment.Run(*e.req.Sweep, experiment.Options{Parallelism: workers, Shard: shard})
		if err != nil {
			return nil, err
		}
		if n := cellErrors(rep); n > 0 {
			return nil, fmt.Errorf("%d cell errors", n)
		}
		err = experiment.WriteJSON(&buf, rep)
		return buf.Bytes(), err
	case serve.KindProof:
		m, err := experiment.RunProofMatrix(*e.req.Proof, experiment.ProofOptions{Parallelism: workers, Shard: shard})
		if err != nil {
			return nil, err
		}
		if n := proofErrors(m); n > 0 {
			return nil, fmt.Errorf("%d proof cell errors", n)
		}
		err = experiment.WriteProofsJSON(&buf, m)
		return buf.Bytes(), err
	case serve.KindConform:
		m, err := experiment.RunConformance(*e.req.Conform, experiment.ConformanceOptions{Parallelism: workers, Shard: shard})
		if err != nil {
			return nil, err
		}
		if _, _, _, failed := m.Counts(); failed > 0 {
			return nil, fmt.Errorf("%d conformance cell errors", failed)
		}
		err = experiment.WriteConformanceJSON(&buf, m)
		return buf.Bytes(), err
	}
	return nil, fmt.Errorf("unknown kind %q", e.req.Kind)
}
