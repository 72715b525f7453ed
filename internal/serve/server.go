package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"timeprot/internal/cliutil"
	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
)

// ErrShuttingDown is returned by Submit once Close has begun; the HTTP
// surface answers it with 503 Service Unavailable.
var ErrShuttingDown = errors.New("server is shutting down")

// MaxSubmitBytes caps a submit request body. Specs are a few hundred
// bytes; a larger body is refused with 413 before it is decoded.
const MaxSubmitBytes = 1 << 20

// ReadHeaderTimeout is the header read deadline for an http.Server
// serving Handler, so a client that never finishes its headers cannot
// hold a connection open indefinitely.
const ReadHeaderTimeout = 10 * time.Second

// Config tunes a Server. The zero value is usable: GOMAXPROCS workers
// and the wall clock.
type Config struct {
	// Workers is the bounded cell worker pool size (<=0 = GOMAXPROCS).
	// Like engine parallelism, it never affects served bytes.
	Workers int
	// Now is the server's clock, for the status timestamps; nil = wall
	// clock. The contract tests pin it so responses are byte-stable.
	Now func() time.Time
}

// Server is the sweep service: a job registry, a shared scheduler, and
// a shared synchronized store behind an http.Handler. Construct with
// New, wire Handler into a listener, and Close to shut down (cancels
// every job, drains the workers, closes the store).
type Server struct {
	store   *syncStore
	reg     *registry
	sched   *scheduler
	stats   *serverStats
	workers int
	now     func() time.Time

	ctx    context.Context
	cancel context.CancelFunc

	mux *http.ServeMux

	closeMu  sync.Mutex
	closed   bool
	jobs     sync.WaitGroup
	closeErr error
}

// New builds a Server over the shared result store. The server owns st
// from here on: Close closes it.
func New(st store.CellStore, cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:   newSyncStore(st),
		reg:     newRegistry(),
		stats:   newServerStats(),
		workers: workers,
		now:     now,
		ctx:     ctx,
		cancel:  cancel,
	}
	s.sched = newScheduler(workers, s.store, s.stats)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return s
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the server down: no new submissions, every job cancelled,
// in-flight cells finished and written back (completed work is never
// lost — the crash/restart tests replay against exactly this store),
// workers drained, store closed. Idempotent.
func (s *Server) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return s.closeErr
	}
	s.closed = true
	s.closeMu.Unlock()

	s.reg.cancelAll()
	s.cancel()
	s.jobs.Wait()
	s.sched.close()
	s.closeErr = s.store.Close()
	return s.closeErr
}

// expanded is a submit request resolved into its cell matrices and
// their store keys.
type expanded struct {
	shard   experiment.ShardSel
	cells   []experiment.Cell
	proofs  []experiment.ProofCell
	conform []experiment.ConformanceCell
	keys    []store.Key
}

// expand validates a submit request and expands it into its (sharded)
// matrix. Every failure here is the client's: a 400, never a job.
func expand(req SubmitRequest) (expanded, error) {
	var ex expanded
	specs := 0
	for _, set := range []bool{req.Sweep != nil, req.Proof != nil, req.Conform != nil} {
		if set {
			specs++
		}
	}
	if specs != 1 {
		return ex, fmt.Errorf("want exactly one spec (sweep, proof, or conform), got %d", specs)
	}
	sel, err := cliutil.ParseShard(req.Shard)
	if err != nil {
		return ex, err
	}
	ex.shard = sel
	switch req.Kind {
	case KindSweep:
		if req.Sweep == nil {
			return ex, fmt.Errorf("kind %q needs the sweep spec", req.Kind)
		}
		cells, err := req.Sweep.Cells()
		if err != nil {
			return ex, err
		}
		if ex.cells, err = experiment.ShardCells(cells, sel); err != nil {
			return ex, err
		}
		for _, c := range ex.cells {
			k, ok := experiment.CellKey(c)
			if !ok {
				return ex, fmt.Errorf("cell %s/%s does not resolve against the registry", c.ScenarioID, c.Variant)
			}
			ex.keys = append(ex.keys, k)
		}
		// Mirror the engine: only shard 0 of a sharded sweep carries the
		// proof matrix, and it is never sub-sharded.
		if req.Sweep.Proofs && (sel.Count <= 1 || sel.Index == 0) {
			pcells, err := experiment.SweepProofSpec(*req.Sweep).Cells()
			if err != nil {
				return ex, err
			}
			ex.proofs = pcells
			for _, c := range pcells {
				ex.keys = append(ex.keys, experiment.ProofKey(c))
			}
		}
	case KindProof:
		if req.Proof == nil {
			return ex, fmt.Errorf("kind %q needs the proof spec", req.Kind)
		}
		cells, err := req.Proof.Cells()
		if err != nil {
			return ex, err
		}
		if ex.proofs, err = experiment.ShardProofCells(cells, sel); err != nil {
			return ex, err
		}
		for _, c := range ex.proofs {
			ex.keys = append(ex.keys, experiment.ProofKey(c))
		}
	case KindConform:
		if req.Conform == nil {
			return ex, fmt.Errorf("kind %q needs the conform spec", req.Kind)
		}
		cells, err := req.Conform.Cells()
		if err != nil {
			return ex, err
		}
		if ex.conform, err = experiment.ShardConformCells(cells, sel); err != nil {
			return ex, err
		}
		for _, c := range ex.conform {
			ex.keys = append(ex.keys, experiment.ConformKey(c))
		}
	default:
		return ex, fmt.Errorf("unknown kind %q (want %s, %s, or %s)", req.Kind, KindSweep, KindProof, KindConform)
	}
	return ex, nil
}

// Submit accepts a request programmatically — the HTTP submit handler
// over a direct call. The returned job is already scheduled.
func (s *Server) Submit(req SubmitRequest) (*Job, error) {
	ex, err := expand(req)
	if err != nil {
		return nil, err
	}
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return nil, ErrShuttingDown
	}
	j := s.reg.add(s.ctx, req, s.now())
	j.shard = ex.shard
	j.cells = ex.cells
	j.proofCells = ex.proofs
	j.conformCells = ex.conform
	s.stats.addJob(ex.keys)
	s.jobs.Add(1)
	s.closeMu.Unlock()
	go s.runJob(j)
	return j, nil
}

// runJob is one job's runner: feed the job's tasks to the shared
// scheduler, wait for them, then assemble the report warm from the
// store and finish.
func (s *Server) runJob(j *Job) {
	defer s.jobs.Done()
	j.setState(StateRunning, s.now(), "")

	var wg sync.WaitGroup
	tasks := make([]task, 0, len(j.proofCells)+len(j.conformCells)+1)
	for _, g := range experiment.FinalizationGroups(j.cells) {
		tasks = append(tasks, task{job: j, cells: g})
	}
	for i := range j.proofCells {
		tasks = append(tasks, task{job: j, proof: &j.proofCells[i]})
	}
	for i := range j.conformCells {
		tasks = append(tasks, task{job: j, conform: &j.conformCells[i]})
	}
feed:
	for i := range tasks {
		tasks[i].wg = &wg
		wg.Add(1)
		select {
		case s.sched.tasks <- tasks[i]:
		case <-j.ctx.Done():
			wg.Done()
			break feed
		}
	}
	wg.Wait()

	if j.ctx.Err() != nil {
		j.setState(StateCanceled, s.now(), "")
		return
	}
	body, err := s.assemble(j)
	if err != nil {
		if j.ctx.Err() != nil {
			j.setState(StateCanceled, s.now(), "")
		} else {
			j.setState(StateFailed, s.now(), err.Error())
		}
		return
	}
	j.setResult(body)
	j.setState(StateDone, s.now(), "")
}

// assemble produces the job's report by running the ordinary engine
// runner against the now-warm shared store — the exact bytes the
// matching CLI would emit for the same spec, which is what makes served
// results comparable (and committed-golden-testable) against cold
// single-process runs. The store serves every cell the scheduler filled
// in; anything missing (a failed write-back) re-executes here, so the
// report is always complete.
func (s *Server) assemble(j *Job) ([]byte, error) {
	var buf bytes.Buffer
	switch j.kind {
	case KindSweep:
		rep, err := experiment.Run(*j.req.Sweep, experiment.Options{
			Parallelism: s.workers, Store: s.store, Shard: j.shard, Context: j.ctx})
		if err != nil {
			return nil, err
		}
		if err := experiment.WriteJSON(&buf, rep); err != nil {
			return nil, err
		}
	case KindProof:
		m, err := experiment.RunProofMatrix(*j.req.Proof, experiment.ProofOptions{
			Parallelism: s.workers, Store: s.store, Shard: j.shard, Context: j.ctx})
		if err != nil {
			return nil, err
		}
		if err := experiment.WriteProofsJSON(&buf, m); err != nil {
			return nil, err
		}
	case KindConform:
		m, err := experiment.RunConformance(*j.req.Conform, experiment.ConformanceOptions{
			Parallelism: s.workers, Store: s.store, Shard: j.shard, Context: j.ctx})
		if err != nil {
			return nil, err
		}
		if err := experiment.WriteConformanceJSON(&buf, m); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown kind %q", j.kind)
	}
	return buf.Bytes(), nil
}

// ---- HTTP handlers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorReply{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxSubmitBytes))
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, "bad request body: %v", err)
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	j, err := s.Submit(req)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrShuttingDown) {
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID: j.id, Kind: j.kind, State: StateQueued, Cells: j.total(),
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.list())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.reg.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", id)
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st := j.status()
	if st.State != StateDone {
		writeErr(w, http.StatusConflict, "job %s is %s, not done", j.id, st.State)
		return
	}
	j.mu.Lock()
	body := j.result
	j.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleStream follows the job as NDJSON: the full event history
// replays first, then live events until the job is terminal (or the
// client goes away).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	idx := 0
	for {
		evs, isTerminal, changed := j.follow(idx)
		for _, e := range evs {
			enc.Encode(e)
		}
		idx += len(evs)
		if fl != nil {
			fl.Flush()
		}
		if isTerminal {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats.snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
