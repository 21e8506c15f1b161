package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagValidation execs the built binary: every bad flag value is
// rejected up front with exit 2 and a message naming the flag, before
// any experiment runs.
func TestFlagValidation(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "repro")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building repro: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string // substring of the combined output
	}{
		{[]string{"-sf", "-1"}, "repro: -sf must be a positive, finite number"},
		{[]string{"-batch-rows", "-5"}, "repro: -batch-rows must be >= 0 (0 = default), got -5"},
		{[]string{"-j", "-2"}, "repro: -j must be >= 0 (0 = GOMAXPROCS), got -2"},
		{[]string{"-shards", "-3"}, "repro: -shards must be >= 0 (0 = GOMAXPROCS), got -3"},
		{[]string{"-conc", "2,x"}, `repro: bad -conc value "x"`},
		{[]string{"-bench-o", t.TempDir()}, "is a directory"},
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
