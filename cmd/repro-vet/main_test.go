package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles repro-vet once per test binary into a temp dir.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "repro-vet")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building repro-vet: %v\n%s", err, out)
	}
	return bin
}

// scratchModule writes a throwaway module whose sim package carries a
// wall-clock violation when violate is true.
func scratchModule(t *testing.T, violate bool) string {
	t.Helper()
	dir := t.TempDir()
	body := "package sim\n\nfunc Tick() int64 { return 0 }\n"
	if violate {
		body = "package sim\n\nimport \"time\"\n\nfunc Tick() int64 { return time.Now().UnixNano() }\n"
	}
	files := map[string]string{
		"go.mod":     "module scratch\n\ngo 1.22\n",
		"sim/sim.go": body,
	}
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runIn(t *testing.T, dir string, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

// TestSeededViolationGoesRed is the red-gate proof: a tree with a
// nondeterminism violation makes the standalone checker exit nonzero,
// and a clean tree exits zero.
func TestSeededViolationGoesRed(t *testing.T) {
	bin := buildTool(t)

	out, code := runIn(t, scratchModule(t, true), bin, "./...")
	if code != 1 {
		t.Fatalf("violating module: got exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "nodeterm") || !strings.Contains(out, "time.Now") {
		t.Fatalf("violating module: missing nodeterm finding in output:\n%s", out)
	}

	out, code = runIn(t, scratchModule(t, false), bin, "./...")
	if code != 0 {
		t.Fatalf("clean module: got exit %d, want 0\n%s", code, out)
	}
}
