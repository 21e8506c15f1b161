package lint_test

import (
	"go/ast"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/load"
)

// The fixture packages under testdata/src carry `// want` comments; each
// analyzer must produce exactly the diagnostics its fixtures expect —
// no more (false positives) and no fewer (vacuous analyzers).

func TestNodeterm(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Nodeterm, "sim", "fault", "replay", "other")
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Maporder, "maporder")
}

func TestFingerprint(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Fingerprint, "pstore")
}

func TestCursorclose(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Cursorclose, "cursor")
}

// TestTreeIsClean runs the full suite over the real repository tree,
// the same sweep `go run ./cmd/repro-vet ./...` performs in CI. The
// repo must stay clean: a regression here is exactly the red gate the
// CI lint job enforces.
func TestTreeIsClean(t *testing.T) {
	pkgs, err := load.Packages("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
	diags, err := lint.Run(lint.All(), pkgs)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

// TestSimKernelHasNoGoroutineOrChannel makes the kernel's determinism
// argument structural. nodeterm already reports a go statement anywhere
// in simulated code (internal/sim carries no waiver any more); shipped
// internal/sim must not even mention a channel type, and must not end a
// goroutine under its caller. Processes are coroutines switched by the
// one goroutine that called Run, so there is nothing the host scheduler
// could order differently from one run to the next.
func TestSimKernelHasNoGoroutineOrChannel(t *testing.T) {
	pkgs, err := load.Packages("../..", "./internal/sim")
	if err != nil {
		t.Fatalf("loading internal/sim: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) == 0 {
		t.Fatalf("loaded %d packages, want internal/sim alone", len(pkgs))
	}
	pkg := pkgs[0]
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement in the kernel", pkg.Fset.Position(n.Pos()))
			case *ast.ChanType:
				t.Errorf("%s: channel type in the kernel", pkg.Fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "runtime" && n.Sel.Name == "Goexit" {
					t.Errorf("%s: runtime.Goexit in the kernel", pkg.Fset.Position(n.Pos()))
				}
			}
			return true
		})
	}
}

// TestEveryProgramIsTested keeps shipped programs checked: a main package
// lives under cmd/, and every cmd/ package has a test in its directory.
// A program nothing runs drifts from the numbers it prints.
func TestEveryProgramIsTested(t *testing.T) {
	pkgs, err := load.Packages("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
	var cmds int
	for _, pkg := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, "repro"), "/")
		inCmd := strings.HasPrefix(rel, "cmd/")
		if pkg.Types.Name() == "main" && !inCmd {
			t.Errorf("%s: package main outside cmd/", rel)
		}
		if !inCmd {
			continue
		}
		cmds++
		tests, err := filepath.Glob(filepath.Join("../..", rel, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(tests) == 0 {
			t.Errorf("%s: no _test.go: nothing checks this program", rel)
		}
	}
	if cmds == 0 {
		t.Fatal("found no cmd/ packages: the guard checked nothing")
	}
}
