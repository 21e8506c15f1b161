package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDesigner builds the command into a temporary directory.
func buildDesigner(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "designer")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building designer: %v\n%s", err, out)
	}
	return bin
}

// TestBadInputsExitNonZero execs the built binary: a non-finite workload
// parameter is refused with an error naming its field, not reported as
// an unmet performance target, and a malformed -sweep exits 1.
func TestBadInputsExitNonZero(t *testing.T) {
	bin := buildDesigner(t)
	for _, tc := range []struct {
		args []string
		want string // substring of the combined output
	}{
		{[]string{"-bsel", "NaN"}, "build selectivity Sbld"},
		{[]string{"-psel", "NaN"}, "probe selectivity Sprb"},
		{[]string{"-build-gb", "NaN"}, "build table size Bld"},
		{[]string{"-probe-gb", "Inf"}, "probe table size Prb"},
		{[]string{"-target", "NaN"}, "performance target must be in (0,1], got NaN"},
		{[]string{"-sweep", "0.1,NaN"}, "-sweep selectivity NaN out of (0,1]"},
		{[]string{"-sweep", "0.1,abc"}, `bad -sweep value "abc"`},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Errorf("designer %v: err = %v, want exit 1\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("designer %v: output lacks %q:\n%s", tc.args, tc.want, out)
		}
		if strings.Contains(string(out), "infeasible") {
			t.Errorf("designer %v: an input error reported as an infeasible design:\n%s", tc.args, out)
		}
	}
}

// TestDefaultRunRecommends: a run with every flag at its default prints
// its recommendation line.
func TestDefaultRunRecommends(t *testing.T) {
	out, err := exec.Command(buildDesigner(t)).CombinedOutput()
	if err != nil {
		t.Fatalf("designer: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "\nrecommend:  ") {
		t.Fatalf("no recommend: line:\n%s", out)
	}
}
