package serve

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"timeprot/internal/experiment"
	"timeprot/internal/experiment/store"
)

var update = flag.Bool("update", false, "rewrite the committed HTTP contract goldens")

// contractServer boots a byte-deterministic server: one worker (so the
// event stream's cell order is the feed order), a pinned clock (so
// every timestamp is the same stamp), a fresh store (so every cell is
// "executed"), and a fresh registry (so the first job is j1).
func contractServer(t *testing.T) string {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	srv := New(st, Config{Workers: 1, Now: func() time.Time { return t0 }})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

// checkGolden compares a response body against its committed fixture.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test ./internal/serve -run TestHTTPContract -update`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverges from the committed golden — if the API or engine change is intentional, regenerate with -update\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// do performs one request and asserts its status code.
func do(t *testing.T, method, url, body string, wantCode int) []byte {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: got %d, want %d\n%s", method, url, resp.StatusCode, wantCode, b)
	}
	return b
}

// TestHTTPContract pins the v1 wire format with golden fixtures: the
// happy path (submit → stream → status → result → list → stats) and
// every rejection class. The stream golden doubles as the progress
// contract: with one worker the cell order is exactly the feed order.
func TestHTTPContract(t *testing.T) {
	base := contractServer(t)
	spec := `{"Scenarios":["T4"],"Rounds":20,"Seeds":[11]}`

	b := do(t, "POST", base+"/v1/jobs", `{"kind":"sweep","sweep":`+spec+`}`, http.StatusAccepted)
	checkGolden(t, "submit_sweep.json", b)

	// The stream blocks until the job is terminal, so reading it to EOF
	// is also the test's completion barrier.
	b = do(t, "GET", base+"/v1/jobs/j1/stream", "", http.StatusOK)
	checkGolden(t, "stream.ndjson", b)

	b = do(t, "GET", base+"/v1/jobs/j1", "", http.StatusOK)
	checkGolden(t, "status.json", b)

	b = do(t, "GET", base+"/v1/jobs/j1/result", "", http.StatusOK)
	checkGolden(t, "result.json", b)

	b = do(t, "GET", base+"/v1/jobs", "", http.StatusOK)
	checkGolden(t, "list.json", b)

	b = do(t, "GET", base+"/v1/stats", "", http.StatusOK)
	checkGolden(t, "stats.json", b)

	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"err_malformed.json", `{"kind":`, http.StatusBadRequest},
		{"err_unknown_kind.json", `{"kind":"sudoku","sweep":` + spec + `}`, http.StatusBadRequest},
		{"err_bad_spec.json", `{"kind":"sweep","sweep":{"Scenarios":["T99"]}}`, http.StatusBadRequest},
		{"err_bad_shard.json", `{"kind":"sweep","shard":"5/2","sweep":` + spec + `}`, http.StatusBadRequest},
		{"err_two_specs.json", `{"kind":"sweep","sweep":` + spec + `,"proof":{}}`, http.StatusBadRequest},
	} {
		b = do(t, "POST", base+"/v1/jobs", tc.body, tc.code)
		checkGolden(t, tc.name, b)
	}
	b = do(t, "GET", base+"/v1/jobs/j999", "", http.StatusNotFound)
	checkGolden(t, "err_unknown_job.json", b)

	// Error submissions must not have minted jobs: the next accepted
	// submission is j2, pinning the ID sequence.
	b = do(t, "POST", base+"/v1/jobs", `{"kind":"sweep","sweep":`+spec+`}`, http.StatusAccepted)
	if !bytes.Contains(b, []byte(`"id": "j2"`)) {
		t.Fatalf("rejected submissions consumed job IDs:\n%s", b)
	}
}

// TestContractStreamReplay: a stream opened after the job finished
// replays the identical full history — byte-equal to the live stream.
func TestContractStreamReplay(t *testing.T) {
	base := contractServer(t)
	spec := `{"Scenarios":["T4"],"Rounds":20,"Seeds":[11]}`
	do(t, "POST", base+"/v1/jobs", `{"kind":"sweep","sweep":`+spec+`}`, http.StatusAccepted)
	live := do(t, "GET", base+"/v1/jobs/j1/stream", "", http.StatusOK)
	replay := do(t, "GET", base+"/v1/jobs/j1/stream", "", http.StatusOK)
	if !bytes.Equal(live, replay) {
		t.Fatalf("replayed stream differs from live stream:\n--- live ---\n%s\n--- replay ---\n%s", live, replay)
	}
}

// TestSubmitAfterClose: once Close has begun, Submit returns
// ErrShuttingDown and the HTTP surface answers 503.
func TestSubmitAfterClose(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{Workers: 1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	spec := `{"Scenarios":["T4"],"Rounds":20,"Seeds":[11]}`
	b := do(t, "POST", hs.URL+"/v1/jobs", `{"kind":"sweep","sweep":`+spec+`}`, http.StatusServiceUnavailable)
	if !bytes.Contains(b, []byte(ErrShuttingDown.Error())) {
		t.Fatalf("503 body does not name the shutdown:\n%s", b)
	}
	sweep := &experiment.Spec{Scenarios: []string{"T4"}, Rounds: 20, Seeds: []uint64{11}}
	if _, err := srv.Submit(SubmitRequest{Kind: KindSweep, Sweep: sweep}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after Close: %v, want ErrShuttingDown", err)
	}
}

// TestOversizedSubmit: a body over MaxSubmitBytes is refused with 413
// without being decoded, even when its first MaxSubmitBytes hold a
// valid request, and mints no job.
func TestOversizedSubmit(t *testing.T) {
	base := contractServer(t)
	req := `{"kind":"sweep","sweep":{"Scenarios":["T4"],"Rounds":20,"Seeds":[11]}}`
	do(t, "POST", base+"/v1/jobs", req+strings.Repeat(" ", MaxSubmitBytes), http.StatusRequestEntityTooLarge)
	b := do(t, "POST", base+"/v1/jobs", req, http.StatusAccepted)
	if !bytes.Contains(b, []byte(`"id": "j1"`)) {
		t.Fatalf("the refused body minted a job:\n%s", b)
	}
}
