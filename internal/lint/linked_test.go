package lint_test

import (
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint/load"
)

// program is the non-test code of ./internal/... and ./cmd/..., loaded
// once: the function and field guards take their declarations from it.
var program = sync.OnceValues(func() ([]*load.Package, error) {
	return load.Packages("../..", "./internal/...", "./cmd/...")
})

// notLinked names the declared functions that no shipped binary links,
// each with the reason it stays. A key is a function or method as
// symbolName renders it ("sim.Server.BusySeconds"), or a whole package
// ("lint/analysistest").
var notLinked = map[string]string{
	"lint/analysistest":      "the analyzers' test harness: only the lint tests import it",
	"sim.Engine.Stats":       "the per-engine kernel counters that the pinned and task-vs-process tests compare (pstore TestSF100ShuffleJoinPinned, TestExchangeTasksMatchProcessForms; cluster TestTaskPumpAndTrySendMatchProcessForms)",
	"sim.Server.BusySeconds": "per-server busy time: the task-vs-process oracles compare it, and the planned per-component time/energy breakdown and the check Σbusy ≤ elapsed read it",
	"sim.WaitGroup.Wait":     "the process-form exchange oracle parks on it (pstore refExchange, TestExchangeTasksMatchProcessForms; sim TestSoupOrderMatchesParentKernel)",
}

// TestEveryFunctionIsLinked keeps the internal API to what a program
// runs: every declared non-test function and method under internal/ is
// linked into a cmd/ binary or the benchmark module, or notLinked says
// why not. The binaries are built with inlining off for this module, so
// an inlined call still leaves its callee in the symbol table.
func TestEveryFunctionIsLinked(t *testing.T) {
	bin := t.TempDir()
	build := func(dir string, args ...string) {
		cmd := exec.Command("go", append([]string{"build", "-gcflags=repro/...=-l", "-o"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	build("../..", bin+string(filepath.Separator), "./cmd/...")
	build("../../benchmark", filepath.Join(bin, "benchmark"), ".")

	linked := map[string]bool{}
	ents, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if name, ok := symbolName(line); ok {
				linked[name] = true
			}
		}
	}
	if len(linked) == 0 {
		t.Fatal("the binaries link no internal function: the guard checked nothing")
	}

	pkgs, err := program()
	if err != nil {
		t.Fatalf("loading internal and cmd packages: %v", err)
	}
	used := map[string]bool{}
	for _, pkg := range pkgs {
		rel, ok := strings.CutPrefix(pkg.Path, "repro/internal/")
		if !ok {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				name := rel + "." + fd.Name.Name
				if fd.Recv != nil {
					name = rel + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				switch {
				case linked[name]:
				case notLinked[name] != "":
					used[name] = true
				case notLinked[rel] != "":
					used[rel] = true
				default:
					t.Errorf("%s: no binary links it; delete it, move it into a _test.go, or add it to notLinked with a reason", name)
				}
			}
		}
	}
	for key, why := range notLinked {
		if !used[key] {
			t.Errorf("notLinked[%q] (%s) names no unlinked function", key, why)
		}
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// nmLine is one `go tool nm` line: address (blank for an undefined
// symbol), type letter and a name that may contain spaces.
var nmLine = regexp.MustCompile(`^\s*[0-9a-f]*\s+[A-Za-z]\s+(.+)$`)

// closure is a name part the compiler adds inside a function: a
// closure (func1, and 1 for one nested in it), a go or defer wrapper.
var closure = regexp.MustCompile(`^(func|gowrap|deferwrap)?[0-9]+$`)

// symbolName maps a `go tool nm` line to the declared function it
// belongs to, as "pkg.Func" or "pkg.Type.Method" with pkg relative to
// repro/internal/. Type arguments, receiver parentheses, generic
// dictionaries, method-value wrappers (-fm) and closures all fold into
// their function. It reports false for a symbol outside repro/internal/.
func symbolName(line string) (string, bool) {
	m := nmLine.FindStringSubmatch(line)
	if m == nil || !strings.HasPrefix(m[1], "repro/internal/") {
		return "", false
	}
	// Drop type arguments first: shape names hold spaces, dots and
	// parentheses of their own.
	var b strings.Builder
	depth := 0
	for _, r := range strings.TrimPrefix(m[1], "repro/internal/") {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	pkgEnd := strings.LastIndexByte(s, '/') + 1
	pkgEnd += strings.IndexByte(s[pkgEnd:], '.')
	pkg, rest := s[:pkgEnd], strings.TrimPrefix(s[pkgEnd+1:], ".dict.")
	rest = strings.TrimSuffix(rest, "-fm")
	rest = strings.NewReplacer("(*", "", "(", "", ")", "").Replace(rest)
	parts := strings.Split(rest, ".")
	n := 0
	for n < len(parts) && n < 2 && !closure.MatchString(parts[n]) {
		n++
	}
	return pkg + "." + strings.Join(parts[:n], "."), true
}

// TestSymbolName runs symbolName over real `go tool nm` lines, one
// subtest per form of symbol the compiler emits. A want of "" means the
// line names no internal function.
func TestSymbolName(t *testing.T) {
	type nm struct{ line, want string }
	for _, c := range []struct {
		form  string
		lines []nm
	}{
		{"function", []nm{
			{"  50d0a0 T repro/internal/cluster.Homogeneous", "cluster.Homogeneous"},
			{"  68c4a0 T repro/internal/experiments.Registry", "experiments.Registry"},
		}},
		{"value receiver", []nm{
			{"  503da0 T repro/internal/core.Candidate.Label", "core.Candidate.Label"},
		}},
		{"pointer receiver", []nm{
			{"  50c720 T repro/internal/cluster.(*Cluster).Run", "cluster.Cluster.Run"},
		}},
		{"method value", []nm{
			{"  6dafe0 T repro/internal/cluster.(*Cluster).Run-fm", "cluster.Cluster.Run"},
			{"  686e60 T repro/internal/power.Model.Watts-fm", "power.Model.Watts"},
		}},
		{"closure", []nm{
			{"  504aa0 T repro/internal/core.Designer.Explore.func1", "core.Designer.Explore"},
			{"  69d2a0 T repro/internal/experiments.Table1.func1.1", "experiments.Table1"},
			{"  67df40 T repro/internal/pstore.(*Exec).LaunchJoin.func1.1", "pstore.Exec.LaunchJoin"},
		}},
		{"go wrapper", []nm{
			{"  6a9680 T repro/internal/service.New.gowrap1", "service.New"},
		}},
		{"defer wrapper", []nm{
			{"  67b840 T repro/internal/pstore.(*Cache).lookup.deferwrap1", "pstore.Cache.lookup"},
		}},
		{"generic dictionary", []nm{
			{"  875440 R repro/internal/par..dict.Map[repro/internal/storage.chunk,[32]int64]", "par.Map"},
			{"  525ce0 R repro/internal/par..dict.Map[main.cell.1,repro/internal/core.Advice]", "par.Map"},
			{"  879400 R repro/internal/service/fairq..dict.Queue[*repro/internal/service.job]", "service/fairq.Queue"},
		}},
		{"generic shape", []nm{
			{"  6a15a0 T repro/internal/par.Map[go.shape.float64,go.shape.struct { Makespan float64; QuerySeconds []float64; Txns int64; TxnRows int64; Merges int; Joules float64 }].func1.deferwrap1", "par.Map"},
			{"  66c700 T repro/internal/par.Map[go.shape.struct { repro/internal/storage.lo int64; repro/internal/storage.hi int64 },go.shape.[32]int64].func1.deferwrap1", "par.Map"},
		}},
		{"generic receiver", []nm{
			{"  66ef00 T repro/internal/sim.(*Queue[go.shape.struct { From int; To int; Batch repro/internal/storage.Batch; EOS bool; Dest *repro/internal/cluster.Mailbox }]).WaitGet", "sim.Queue.WaitGet"},
			{"  67e260 T repro/internal/sim.(*Queue[go.shape.struct { Rows int; Width int; Cols []repro/internal/storage.Int64Column }]).TryGet", "sim.Queue.TryGet"},
			{"  6ad9a0 T repro/internal/service/fairq.(*Queue[go.shape.*uint8]).Pop", "service/fairq.Queue.Pop"},
			{"  6adf00 T repro/internal/service/fairq.(*Queue[*repro/internal/service.job]).Len", "service/fairq.Queue.Len"},
		}},
		{"outside internal", []nm{
			{"         U __errno_location", ""},
			{"  4a1b20 T runtime.mallocgc", ""},
			{"  5c48a0 R go:itab.*repro/internal/pstore.Cache,repro/internal/pstore.JoinRunner", ""},
			{"  4e0000 T main.main", ""},
		}},
	} {
		t.Run(c.form, func(t *testing.T) {
			for _, l := range c.lines {
				if got, ok := symbolName(l.line); ok != (l.want != "") || got != l.want {
					t.Errorf("symbolName(%q) = %q, %v; want %q", l.line, got, ok, l.want)
				}
			}
		})
	}
}
