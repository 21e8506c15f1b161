package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildRepro builds the command into a temporary directory.
func buildRepro(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "repro")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building repro: %v\n%s", err, out)
	}
	return bin
}

// TestFlagValidation execs the built binary: every bad flag value is
// rejected up front with exit 2 and a message naming the flag, before
// any experiment runs.
func TestFlagValidation(t *testing.T) {
	bin := buildRepro(t)
	for _, tc := range []struct {
		args []string
		want string // substring of the combined output
	}{
		{[]string{"-sf", "-1"}, "repro: -sf must be a positive, finite number"},
		{[]string{"-j", "-2"}, "repro: -j must be >= 0 (0 = GOMAXPROCS), got -2"},
		{[]string{"-shards", "-3"}, "repro: -shards must be >= 0 (0 = GOMAXPROCS), got -3"},
		{[]string{"-bench-o", t.TempDir()}, "is a directory"},
		// The sweep knobs are gone: the engine figures run the paper's
		// concurrency levels, htap1 its fixed rates, and every engine run
		// 200k-row batches.
		{[]string{"-conc", "1,2"}, "flag provided but not defined: -conc"},
		{[]string{"-batch-rows", "200000"}, "flag provided but not defined: -batch-rows"},
		{[]string{"-htap-rates", "0,8"}, "flag provided but not defined: -htap-rates"},
		{[]string{"-fail-fast"}, "flag provided but not defined: -fail-fast"},
		{[]string{"-csv"}, "flag provided but not defined: -csv"},
	} {
		args := append([]string{"-exp", "table1"}, tc.args...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("repro %v: err = %v, want exit 2\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("repro %v: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestFlagSet pins the flags repro -h lists: a new knob is a decision,
// not a drive-by.
func TestFlagSet(t *testing.T) {
	out, err := exec.Command(buildRepro(t), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("repro -h: %v\n%s", err, out)
	}
	var flags []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	want := "-bench-force -bench-json -bench-o -cpuprofile -exp -fault-seed -j -json -list -md -memprofile -o -sf -shards -times"
	if got := strings.Join(flags, " "); got != want {
		t.Errorf("repro -h lists %s, want %s", got, want)
	}
}

// TestEmptyTablesFail: at an SF where every table rounds to zero rows
// the engine figures report an error and repro exits 1, instead of
// printing 0 s, 0 J rows as if the joins had run.
func TestEmptyTablesFail(t *testing.T) {
	out, err := exec.Command(buildRepro(t), "-exp", "fig3", "-sf", "1e-9").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("repro -exp fig3 -sf 1e-9: err = %v, want exit 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "ORDERS at SF 1e-09 has no rows") {
		t.Fatalf("output does not name the empty table:\n%s", out)
	}
}

// TestBenchJSONContract pins what the benchmark module's suite_sf100 and
// htap_sf1000 workloads read from `-bench-json`: the snapshot decodes
// into the struct they decode it into, its counts agree with the
// `kernel:` and `join cache:` lines of -times, and an existing snapshot
// is overwritten only with -bench-force.
func TestBenchJSONContract(t *testing.T) {
	bin := buildRepro(t)
	path := filepath.Join(t.TempDir(), "snap.json")
	run := func(extra ...string) (string, error) {
		args := append([]string{"-exp", "fig5", "-times", "-bench-json", "-bench-o", path}, extra...)
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		return stderr.String(), err
	}
	check := func(extra ...string) {
		t.Helper()
		stderr, err := run(extra...)
		if err != nil {
			t.Fatalf("repro: %v\n%s", err, stderr)
		}
		var kernelEvents uint64
		var requests, hits, misses int64
		for _, line := range strings.Split(stderr, "\n") {
			if strings.HasPrefix(line, "kernel:") {
				fmt.Sscanf(line, "kernel: %d events", &kernelEvents)
			}
			if strings.HasPrefix(line, "join cache:") {
				fmt.Sscanf(line, "join cache: %d requests, %d hits, %d engine runs", &requests, &hits, &misses)
			}
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The exact struct benchmark/simwork.go decodes the snapshot into.
		var snap struct {
			Events      uint64 `json:"events"`
			CacheHits   int64  `json:"cache_hits"`
			CacheMisses int64  `json:"cache_misses"`
		}
		if err := json.Unmarshal(b, &snap); err != nil {
			t.Fatalf("decoding the snapshot: %v\n%s", err, b)
		}
		if snap.Events == 0 || snap.Events != kernelEvents {
			t.Errorf("snapshot events = %d, kernel line says %d\n%s", snap.Events, kernelEvents, stderr)
		}
		if requests == 0 || snap.CacheHits != hits || snap.CacheMisses != misses {
			t.Errorf("snapshot cache = %d hits / %d misses, join cache line says %d / %d of %d\n%s",
				snap.CacheHits, snap.CacheMisses, hits, misses, requests, stderr)
		}
	}
	check() // a fresh path needs no -bench-force

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if stderr, err := run(); err == nil {
		t.Fatalf("repro overwrote an existing snapshot without -bench-force\n%s", stderr)
	} else if !strings.Contains(stderr, "already exists") {
		t.Errorf("refusal does not say why:\n%s", stderr)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Fatalf("refused run changed the snapshot:\n%s\nwas\n%s", after, before)
	}

	// -bench-force overwrites, whatever the file held.
	if err := os.WriteFile(path, []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	check("-bench-force")
}

// TestKernelLineIsOrderFree: the `kernel:` line of -times — the event
// count and the event hash after it — is the same whether the
// experiments run serially or on several workers and shards, since the
// hash of a run is the sum of its engines' hashes.
func TestKernelLineIsOrderFree(t *testing.T) {
	bin := buildRepro(t)
	var lines []string
	for _, par := range []string{"1", "2"} {
		cmd := exec.Command(bin, "-exp", "fig3,fig5", "-times", "-j", par, "-shards", par)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("repro -j %s: %v\n%s", par, err, stderr.String())
		}
		var kernel string
		for _, line := range strings.Split(stderr.String(), "\n") {
			if strings.HasPrefix(line, "kernel: ") {
				kernel = line
			}
		}
		var hash uint64
		if i := strings.LastIndex(kernel, "; event hash "); i < 0 {
			t.Fatalf("repro -j %s: no event hash on the kernel line %q", par, kernel)
		} else if _, err := fmt.Sscanf(kernel[i:], "; event hash %x", &hash); err != nil || hash == 0 {
			t.Fatalf("repro -j %s: event hash of %q unreadable (%v) or zero", par, kernel, err)
		}
		lines = append(lines, kernel)
	}
	if lines[0] != lines[1] {
		t.Fatalf("kernel line moved with the worker count:\n-j 1: %s\n-j 2: %s", lines[0], lines[1])
	}
}
