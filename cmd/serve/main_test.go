package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/pstore"
	"repro/internal/service"
)

func testServer(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newMux(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

func defaultConfig() service.Config {
	return service.Config{
		Admission: service.Admission{QueueDepth: 8},
		Execution: service.Execution{
			Workers: 2,
			Engine:  pstore.Config{WarmCache: true, BatchRows: 200_000},
		},
	}
}

func post(t *testing.T, url, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// TestHTTPStatusMapping: request-invalid errors are 400s, answered
// requests are 200s — the caller's fault vs the service's, split by the
// response's invalid flag.
func TestHTTPStatusMapping(t *testing.T) {
	ts := testServer(t, defaultConfig())
	cases := []struct {
		name     string
		body     string
		wantCode int
		wantSub  string
	}{
		{
			name:     "envelope join answers 200",
			body:     `{"v":1,"id":"q1","tenant":"dash","join":{"sf":5}}`,
			wantCode: http.StatusOK,
			wantSub:  `"status":"ok"`,
		},
		{
			name:     "legacy flat join answers 200 via compat",
			body:     `{"id":"legacy","sf":5}`,
			wantCode: http.StatusOK,
			wantSub:  `"status":"ok"`,
		},
		{
			name:     "unknown field is the caller's fault: 400",
			body:     `{"id":"t","join":{"probe_sell":0.1}}`,
			wantCode: http.StatusBadRequest,
			wantSub:  `probe_sell`,
		},
		{
			name:     "invalid payload value: 400",
			body:     `{"id":"bad","join":{"sf":-3}}`,
			wantCode: http.StatusBadRequest,
			wantSub:  `"status":"error"`,
		},
		{
			name:     "join with no rows: 400",
			body:     `{"id":"tiny","join":{"sf":1e-9}}`,
			wantCode: http.StatusBadRequest,
			wantSub:  `no rows`,
		},
		{
			name:     "bad priority: 400",
			body:     `{"id":"p","priority":"urgent","join":{"sf":5}}`,
			wantCode: http.StatusBadRequest,
			wantSub:  `priority`,
		},
		{
			name:     "unsupported envelope version: 400",
			body:     `{"v":7,"join":{"sf":5}}`,
			wantCode: http.StatusBadRequest,
			wantSub:  `version`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body, _ := post(t, ts.URL+"/", tc.body)
			if code != tc.wantCode {
				t.Fatalf("POST %s -> %d (%s), want %d", tc.body, code, body, tc.wantCode)
			}
			if !strings.Contains(body, tc.wantSub) {
				t.Fatalf("body %q does not mention %q", body, tc.wantSub)
			}
		})
	}
}

// gateRunner parks every join until its gate closes.
type gateRunner struct{ gate chan struct{} }

func (g *gateRunner) RunJoin(c *cluster.Cluster, cfg pstore.Config, spec pstore.JoinSpec) (pstore.JoinResult, float64, error) {
	<-g.gate
	return pstore.JoinResult{Seconds: 1}, 1, nil
}

func (g *gateRunner) RunConcurrent(c *cluster.Cluster, cfg pstore.Config, spec pstore.JoinSpec, k int) (float64, []float64, float64, error) {
	return 0, nil, 0, errors.New("unused")
}

// TestHTTPShedMapsTo429WithRetryAfter: a one-worker, zero-queue service
// answers exactly one of two concurrent requests and sheds the other
// with 429 + Retry-After; the shed response arrives while the admitted
// one is still running.
func TestHTTPShedMapsTo429WithRetryAfter(t *testing.T) {
	gr := &gateRunner{gate: make(chan struct{})}
	ts := testServer(t, service.Config{
		Execution: service.Execution{Workers: 1, Runner: gr,
			Engine: pstore.Config{WarmCache: true, BatchRows: 200_000}},
	})

	type result struct {
		code   int
		body   string
		header http.Header
	}
	results := make(chan result, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, h := post(t, ts.URL+"/", `{"join":{"sf":5}}`)
			results <- result{code, body, h}
		}()
	}
	// The shed response returns immediately; the admitted one is parked
	// on the gate, so the first arrival must be the 429.
	shed := <-results
	if shed.code != http.StatusTooManyRequests || !strings.Contains(shed.body, `"status":"shed"`) {
		t.Fatalf("first response = %d %q, want 429 shed", shed.code, shed.body)
	}
	if shed.header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	close(gr.gate)
	ok := <-results
	wg.Wait()
	if ok.code != http.StatusOK || !strings.Contains(ok.body, `"status":"ok"`) {
		t.Fatalf("second response = %d %q, want 200 ok", ok.code, ok.body)
	}
}

// failRunner fails every join.
type failRunner struct{}

func (failRunner) RunJoin(c *cluster.Cluster, cfg pstore.Config, spec pstore.JoinSpec) (pstore.JoinResult, float64, error) {
	return pstore.JoinResult{}, 0, errors.New("injected engine failure")
}

func (failRunner) RunConcurrent(c *cluster.Cluster, cfg pstore.Config, spec pstore.JoinSpec, k int) (float64, []float64, float64, error) {
	return 0, nil, 0, errors.New("unused")
}

// TestHTTPRunFailureMapsTo500: a valid request whose run fails is the
// service's fault — 500, not 400.
func TestHTTPRunFailureMapsTo500(t *testing.T) {
	ts := testServer(t, service.Config{
		Admission: service.Admission{QueueDepth: 4},
		Execution: service.Execution{Workers: 1, Runner: failRunner{},
			Engine: pstore.Config{WarmCache: true, BatchRows: 200_000}},
	})
	code, body, _ := post(t, ts.URL+"/", `{"id":"doomed","join":{"sf":5}}`)
	if code != http.StatusInternalServerError || !strings.Contains(body, "injected engine failure") {
		t.Fatalf("failed run -> %d %q, want 500", code, body)
	}
}

// TestHTTPMetricsEndpoint: GET /metrics includes the per-tenant
// breakdown.
func TestHTTPMetricsEndpoint(t *testing.T) {
	ts := testServer(t, defaultConfig())
	if code, body, _ := post(t, ts.URL+"/", `{"join":{"sf":5}}`); code != http.StatusOK {
		t.Fatalf("warmup POST -> %d %q", code, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Received int64                      `json:"received"`
		Tenants  map[string]json.RawMessage `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Received != 1 {
		t.Fatalf("metrics received = %d, want 1", m.Received)
	}
	if _, ok := m.Tenants["default"]; !ok {
		t.Fatalf("metrics missing default-tenant breakdown: %+v", m.Tenants)
	}
}

// TestParseTenants: the -tenants flag grammar.
func TestParseTenants(t *testing.T) {
	got, err := parseTenants("dash=128:2, batch=16,zero=0")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]service.Tenant{
		"dash":  {QueueDepth: 128, Weight: 2},
		"batch": {QueueDepth: 16},
		"zero":  {QueueDepth: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("parseTenants = %+v, want %+v", got, want)
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("parseTenants[%s] = %+v, want %+v", k, got[k], w)
		}
	}
	if m, err := parseTenants(""); err != nil || m != nil {
		t.Fatalf("empty -tenants = %v, %v", m, err)
	}
	for _, bad := range []string{"noequals", "=5", "x=", "x=abc", "x=-1", "x=1:0", "x=1:b", "a=1,a=2"} {
		if _, err := parseTenants(bad); err == nil {
			t.Fatalf("parseTenants(%q) accepted", bad)
		}
	}
}

// buildServe builds the command into a temporary directory.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building serve: %v\n%s", err, out)
	}
	return bin
}

// TestFlagValidation execs the built binary: every bad flag value is
// rejected with exit 2 and a message naming the flag, before any request
// is served. -compat, the -load harness, the -retries budget and the
// -batch-rows knob are gone, so they are undefined flags, and -h lists
// only the serving flags.
func TestFlagValidation(t *testing.T) {
	bin := buildServe(t)
	for _, tc := range []struct {
		args []string
		want string // substring of the combined output
	}{
		{[]string{"-timeout", "NaN"}, "serve: -timeout must be a positive, finite number of seconds (0 = none), got NaN"},
		{[]string{"-retries", "2"}, "flag provided but not defined: -retries"},
		{[]string{"-workers", "0"}, "serve: -workers must be at least 1, got 0"},
		{[]string{"-queue", "-1"}, "serve: -queue must not be negative, got -1"},
		{[]string{"-nodes", "0"}, "serve: -nodes must be at least 1, got 0"},
		{[]string{"-batch-rows", "0"}, "flag provided but not defined: -batch-rows"},
		{[]string{"-tenants", "dash"}, `serve: -tenants entry "dash": want name=depth or name=depth:weight`},
		{[]string{"-compat=false"}, "flag provided but not defined: -compat"},
		{[]string{"-load"}, "flag provided but not defined: -load"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("serve %v: err = %v, want exit 2\n%s", tc.args, err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("serve %v: output lacks %q:\n%s", tc.args, tc.want, out)
			}
		})
	}
	out, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("serve -h: %v\n%s", err, out)
	}
	var flags []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	want := "-http -nodes -queue -tenants -timeout -warm -workers"
	if got := strings.Join(flags, " "); got != want {
		t.Errorf("serve -h lists %s, want %s", got, want)
	}
}

// TestStdinRefusesOversizedSF: a join past the largest servable scale
// factor gets an error line at once, and the session still exits 0 at
// EOF.
func TestStdinRefusesOversizedSF(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, buildServe(t))
	cmd.Stdin = strings.NewReader(`{"id":"b","join":{"sf":1e9}}` + "\n")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("serve: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), `"id":"b"`) || !strings.Contains(string(out), `"status":"error"`) ||
		!strings.Contains(string(out), "exceeds the largest servable scale factor") {
		t.Fatalf("sf 1e9 not refused:\n%s", out)
	}
}

// TestStdinAnswersBothForms: a JSON-lines session on stdin answers an
// envelope request and a deprecated flat one, with no flag needed for
// the flat form, and exits 0 at EOF.
func TestStdinAnswersBothForms(t *testing.T) {
	cmd := exec.Command(buildServe(t), "-nodes", "4")
	cmd.Stdin = strings.NewReader(`{"v":1,"id":"env","join":{"sf":5}}` + "\n" + `{"id":"flat","sf":5}` + "\n")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("serve: %v\n%s", err, out)
	}
	for _, id := range []string{"env", "flat"} {
		if !strings.Contains(string(out), `"id":"`+id+`"`) {
			t.Errorf("no response for %s:\n%s", id, out)
		}
	}
	if n := strings.Count(string(out), `"status":"ok"`); n != 2 {
		t.Errorf("%d ok responses, want 2:\n%s", n, out)
	}
}
