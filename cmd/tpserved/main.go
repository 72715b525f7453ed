// Command tpserved serves the sweep engine over HTTP: a long-lived
// multi-tenant service accepting the same sweep, proof, and
// conformance specs the CLIs take (as JSON), scheduling their cells
// across one bounded worker pool, deduplicating identical in-flight
// cells across concurrent clients, and serving warm results from a
// shared content-addressed store.
//
// The service invariants (a cell key executes at most once however
// many clients want it; a served report is byte-identical to a cold
// single-process run) are documented in internal/serve and proved by
// the load-test harness, which -selftest runs against a real listener:
// N concurrent clients submit overlapping matrices (full, sharded,
// duplicate) and the run fails unless executed cells == distinct keys
// and the served union report matches a cold in-process run — twice,
// cold then warm (zero executions the second round).
//
// Usage:
//
//	tpserved -store DIR [-addr HOST:PORT] [-workers N]
//	tpserved -selftest [-clients N] [-shards N] [-scenarios T2,..] [-rounds N]
//
// API (all JSON; see internal/serve):
//
//	POST /v1/jobs             submit {"kind":"sweep","sweep":{...}} (or proof/conform) -> 202 + job ID
//	GET  /v1/jobs             list job statuses
//	GET  /v1/jobs/{id}        one job's status
//	GET  /v1/jobs/{id}/stream NDJSON event stream (history replay, then live, ends at a terminal state)
//	GET  /v1/jobs/{id}/result the done job's report (byte-identical to the CLI's -out)
//	POST /v1/jobs/{id}/cancel cancel; completed cells stay in the store
//	GET  /v1/stats            server-wide dedup accounting
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"timeprot/internal/cliutil"
	"timeprot/internal/experiment"
	"timeprot/internal/serve"
	"timeprot/internal/serve/loadtest"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tpserved: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	sf := cliutil.RegisterStore(flag.CommandLine, "cell")
	svf := cliutil.RegisterServe(flag.CommandLine)
	selftest := flag.Bool("selftest", false, "run the load-test harness against an in-process server on a throwaway store, then exit")
	clients := flag.Int("clients", 4, "selftest: concurrent clients submitting overlapping matrices")
	shards := flag.Int("shards", 2, "selftest: n of the i/n-sharded submissions mixed into the schedule")
	scenarios := flag.String("scenarios", "T2", "selftest: comma-separated scenarios of the union matrix")
	rounds := flag.Int("rounds", 8, "selftest: transmission rounds per cell")
	flag.Parse()

	if *selftest {
		runSelfTest(*clients, *shards, *scenarios, *rounds)
		return
	}

	if sf.Dir == "" {
		fail("-store is required (the shared result store every tenant reads and fills)")
	}
	if sf.Shard != "" {
		fail("-shard is per-job in serve mode: put \"shard\":\"i/n\" in the submission instead")
	}
	if sf.WarmOnly {
		fail("-warm-only is a CLI assertion; the service reports warm/cold per cell in its stats")
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tpserved: "+format+"\n", args...)
	}
	st, _, err := sf.Resolve(logf)
	if err != nil {
		fail("%v", err)
	}

	srv := serve.New(st, serve.Config{Workers: svf.Workers})
	ln, err := net.Listen("tcp", svf.Addr)
	if err != nil {
		srv.Close()
		fail("%v", err)
	}
	logf("listening on http://%s (store %s, %s backend)", ln.Addr(), sf.Dir, sf.Backend)
	logf("engine %s", experiment.Fingerprint())

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: serve.ReadHeaderTimeout}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logf("%v: draining (in-flight cells finish and are written back)", s)
	case err := <-done:
		srv.Close()
		fail("serve: %v", err)
	}
	hs.Close()
	// Close cancels every job but waits for in-flight cells to write
	// back before closing the store — a restart on the same -store
	// resumes exactly where this run stopped.
	if err := srv.Close(); err != nil {
		fail("shutdown: %v", err)
	}
}

// runSelfTest proves the service invariants end to end on this
// machine: real listener, real HTTP clients, throwaway store.
func runSelfTest(clients, shards int, scenarios string, rounds int) {
	dir, err := os.MkdirTemp("", "tpserved-selftest-*")
	if err != nil {
		fail("selftest: %v", err)
	}
	defer os.RemoveAll(dir)
	spec := experiment.Spec{
		Scenarios: cliutil.SplitList(scenarios),
		Rounds:    rounds,
		Seeds:     []uint64{42, 43},
	}
	logf := func(format string, args ...any) {
		fmt.Printf("selftest: "+format+"\n", args...)
	}
	if err := loadtest.SelfTest(dir, clients, shards, spec, logf); err != nil {
		fail("%v", err)
	}
	logf("ok: dedup and byte-identity invariants hold under %d clients", clients)
}
