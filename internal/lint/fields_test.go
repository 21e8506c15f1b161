//go:build go1.23

package lint_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint/load"
)

// unread names the struct fields declared under internal/ and cmd/ that
// no non-test code reads, each with the reason it stays. A key is a
// field as fieldNamer renders it ("hw.Spec.SleepWatts"). A field that
// reflection (%v, %+v, %#v, untagged encoding/json), a whole-value == or
// a map key reads is invisible to the guard and must be named here.
var unread = map[string]string{
	"hw.Spec.SleepWatts":               "fault.Fingerprint hashes hw.Spec through %+v, so deleting it reseeds fault1 and fault2; ROADMAP item 4(a) deletes it",
	"hw.Spec.WakeSeconds":              "hashed with SleepWatts through fault.Fingerprint's %+v; ROADMAP item 4(a) deletes it",
	"pstore.Plan.Spec":                 "PlanJoin's output, whose call the benchmark module times; ROADMAP item 7",
	"storage.TableDef.Placement":       "benchmark/probes.go sets it, and that module is frozen",
	"lint/load.Package.Path":           "the structural guards in internal/lint key packages by it",
	"tpch.LineitemRow.ShipDate":        "the row-generator oracle for the L_SHIPDATE segment column that storage/load.go reads, checked in columns_test.go",
	"tpch.OrderRow.CustKey":            "the row-generator oracle for the O_CUSTKEY segment column that storage/load.go reads, checked in columns_test.go",
	"pstore.JoinResult.BuildRowsTotal": "the phantom-vs-materialised build-row checks in pstore_test.go and engine_extra_test.go read it",
	"delta.setKey.table":               "half of delta.Set's map key: the map's hash and == read it",
	"delta.setKey.node":                "half of delta.Set's map key: the map's hash and == read it",
}

// unset names the exported struct fields declared under internal/ and
// cmd/ that no non-test code writes, each with the reason it stays. A
// key is a field as fieldNamer renders it. A field that only reflection
// (encoding/json) fills is invisible to the guard and must be named here.
var unset = map[string]string{
	"pstore.Config.JoinWork":       "BenchmarkAblationJoinWork (a CI smoke step) sweeps it, and TestExchangeTasksMatchProcessForms draws it",
	"pstore.Config.MailboxCap":     "the exchange oracles (TestExchangeTasksMatchProcessForms) draw 1-8 to reach full-mailbox parking; ROADMAP item 1",
	"cluster.Config.InboxCapacity": "the exchange oracles (TestTaskPumpAndTrySendMatchProcessForms, TestExchangeTasksMatchProcessForms) draw 1-8 to reach full-inbox parking; ROADMAP item 1",
	"delta.Config.MaxTailRows":     "TestMergePolicy and TestHTAPMergesHappen shrink the merge thresholds; benchmark/probes.go names delta.Config, and that module is frozen",
	"delta.Config.MaxTailAge":      "TestMergePolicy shrinks the merge age threshold; benchmark/probes.go names delta.Config, and that module is frozen",
	"delta.Config.CheckEvery":      "TestHTAPMergesHappen shortens the merge scheduler's tick; benchmark/probes.go names delta.Config, and that module is frozen",
	"workload.HTAPSpec.Delta":      "TestHTAPMergesHappen shrinks the merge thresholds of a mixed run through it",
	"power.PowerLaw.Floor":         "fault.Fingerprint hashes hw.Spec, and its power model, through %+v, so deleting it reseeds fault1 and fault2; ROADMAP convention (vi)",
	"hw.Spec.SleepWatts":           "fault.Fingerprint hashes hw.Spec through %+v, so deleting it reseeds fault1 and fault2; ROADMAP convention (vi)",
	"hw.Spec.WakeSeconds":          "hashed with SleepWatts through fault.Fingerprint's %+v; ROADMAP convention (vi)",
	"replay.Clock.Now":             "replay.Run's signature is frozen by benchmark/flood.go, which passes the zero Clock; TestRunPacesAgainstTheClock sets it",
	"replay.Clock.Sleep":           "set with Now by TestRunPacesAgainstTheClock; replay.Run's signature is frozen",
	"service.Execution.Runner":     "the service tests' fake join runner",
	"service.Execution.Cluster":    "the service tests' fake cluster factory",
	"lint/load.listPkg.ImportPath": "encoding/json fills it from go list's output",
	"lint/load.listPkg.Dir":        "encoding/json fills it from go list's output",
	"lint/load.listPkg.Export":     "encoding/json fills it from go list's output",
	"lint/load.listPkg.GoFiles":    "encoding/json fills it from go list's output",
	"lint/load.listPkg.DepOnly":    "encoding/json fills it from go list's output",
	"lint/load.listPkg.Error":      "encoding/json fills it from go list's output",
	"lint/load.listPkg.Error.Err":  "encoding/json fills it from go list's output",
}

// benchmarkModule is the non-test code of the benchmark module, loaded
// once: its reads and writes count for the field guards.
var benchmarkModule = sync.OnceValues(func() ([]*load.Package, error) {
	return load.Packages("../../benchmark", "./...")
})

// TestEveryFieldIsRead keeps every struct field to what a program reads:
// each named, untagged field of a struct type declared in non-test code
// under internal/ or cmd/ is read by a field selection somewhere in the
// non-test code of this module or the benchmark module, or unread says
// why not. Tagged fields are exempt: encoding/json reads them.
func TestEveryFieldIsRead(t *testing.T) {
	pkgs, err := program()
	if err != nil {
		t.Fatalf("loading internal and cmd packages: %v", err)
	}
	bench, err := benchmarkModule()
	if err != nil {
		t.Fatalf("loading the benchmark module: %v", err)
	}
	for _, msg := range allowlistErrors(unreadFields(pkgs, bench), unread, "unread",
		"no program reads it; delete it with what feeds it") {
		t.Error(msg)
	}
}

// TestEveryFieldIsReadClassifier runs the guard over the fields fixture,
// whose field names say how each is used.
func TestEveryFieldIsReadClassifier(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("testdata", "src", "fields", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture files: %v, %v", files, err)
	}
	pkg, err := load.Check(fset, "fields", files, importer.ForCompiler(fset, "gc", nil))
	if err != nil {
		t.Fatal(err)
	}
	got := unreadFields([]*load.Package{pkg})
	want := []string{
		"fields.T.assigned",
		"fields.T.incremented",
		"fields.T.literal",
		"fields.T.opAssigned",
		"fields.T.reflected",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unread fields = %q\nwant %q", got, want)
	}
}

// TestEveryFieldIsWritten keeps every setting to what a program sets:
// each exported, untagged field of a struct type declared in non-test
// code under internal/ or cmd/ is written by the non-test code of this
// module or the benchmark module, or unset says why not. A field that
// only tests or a withDefaults method set is a constant.
func TestEveryFieldIsWritten(t *testing.T) {
	pkgs, err := program()
	if err != nil {
		t.Fatalf("loading internal and cmd packages: %v", err)
	}
	bench, err := benchmarkModule()
	if err != nil {
		t.Fatalf("loading the benchmark module: %v", err)
	}
	for _, msg := range allowlistErrors(unwrittenFields(pkgs, bench), unset, "unset",
		"no program sets it; make it a constant, delete it with what reads it") {
		t.Error(msg)
	}
}

// allowlistErrors checks a field guard's findings against its table,
// named name: a finding the table gives no reason for is an error, and so
// is an entry that names no finding, because a stale entry would let the
// next field of that name through unexamined. fix says what to do with
// an unlisted finding.
func allowlistErrors(findings []string, table map[string]string, name, fix string) []string {
	var errs []string
	listed := map[string]bool{}
	for _, f := range findings {
		if table[f] != "" {
			listed[f] = true
			continue
		}
		errs = append(errs, fmt.Sprintf("%s: %s, or add it to %s with a reason", f, fix, name))
	}
	for key, why := range table {
		if !listed[key] {
			errs = append(errs, fmt.Sprintf("%s[%q] (%s) names no %s field", name, key, why, name))
		}
	}
	sort.Strings(errs)
	return errs
}

// TestAllowlistErrors: both field guards fail on a finding their table
// does not give a reason for, an empty reason included, and on a stale
// entry.
func TestAllowlistErrors(t *testing.T) {
	got := allowlistErrors([]string{"p.T.Listed", "p.T.New", "p.T.NoReason"}, map[string]string{
		"p.T.Listed":   "a reason",
		"p.T.NoReason": "",
		"p.T.Gone":     "deleted since",
	}, "unset", "no program sets it")
	want := []string{
		"p.T.New: no program sets it, or add it to unset with a reason",
		"p.T.NoReason: no program sets it, or add it to unset with a reason",
		`unset["p.T.Gone"] (deleted since) names no unset field`,
		`unset["p.T.NoReason"] () names no unset field`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("allowlistErrors = %q\nwant %q", got, want)
	}
}

// TestEveryFieldIsWrittenClassifier runs the guard over the setters
// fixture, whose field names say how each is written.
func TestEveryFieldIsWrittenClassifier(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("testdata", "src", "setters", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fixture files: %v, %v", files, err)
	}
	pkg, err := load.Check(fset, "setters", files, importer.ForCompiler(fset, "gc", nil))
	if err != nil {
		t.Fatal(err)
	}
	got := unwrittenFields([]*load.Package{pkg})
	want := []string{
		"setters.T.Decoded",
		"setters.T.Defaulted",
		"setters.T.Never",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unwritten fields = %q\nwant %q", got, want)
	}
}

// unwrittenFields returns, sorted, the exported, named and untagged
// fields of the struct types that decl's files declare, which no code in
// decl or writers writes outside a withDefaults method.
func unwrittenFields(decl []*load.Package, writers ...[]*load.Package) []string {
	n, declared := declaredFields(decl)
	written := map[string]bool{}
	for _, pkgs := range append([][]*load.Package{decl}, writers...) {
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				n.writes(pkg.Info, f, written)
			}
		}
	}
	var out []string
	for name := range declared {
		if token.IsExported(name[strings.LastIndexByte(name, '.')+1:]) && !written[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// declaredFields names the fields of decl's struct types and returns
// the named, untagged ones declared in decl's files.
func declaredFields(decl []*load.Package) (*fieldNamer, map[string]bool) {
	n := &fieldNamer{names: map[*types.Var]string{}, done: map[*types.Package]bool{}}
	declared := map[string]bool{}
	for _, pkg := range decl {
		n.pkg(pkg.Types)
		for _, f := range pkg.Files {
			n.local(pkg, f, declared)
		}
	}
	return n, declared
}

// unreadFields returns, sorted, the named and untagged fields of the
// struct types that decl's files declare, which no field selection in
// decl or readers reads. A selection that is the whole left operand of
// =, := or an op-assignment, or the operand of ++/--, writes its field;
// the selections inside that operand (t.p in t.p.f = 1, t.i in
// t.m[t.i] = 1) still read theirs. A composite-literal key is no
// selection, so it writes. A selection promoted through embedded fields
// reads every field on its path.
func unreadFields(decl []*load.Package, readers ...[]*load.Package) []string {
	n, declared := declaredFields(decl)
	read := map[string]bool{}
	for _, pkgs := range append([][]*load.Package{decl}, readers...) {
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				n.reads(pkg.Info, f, read)
			}
		}
	}
	var out []string
	for name := range declared {
		if !read[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// fieldNamer names struct fields by where they are declared:
// "pkg.Type.Field" for a package-level type, nested anonymous structs as
// "pkg.Type.Field.Sub", with pkg relative to repro/internal/ (or repro/
// for a command). A package's own typecheck and the export data another
// package imports it from hold distinct objects for one field; both get
// the same name.
type fieldNamer struct {
	names map[*types.Var]string
	done  map[*types.Package]bool
}

// shortPath is a package path relative to repro/internal/, or to repro/.
func shortPath(path string) string {
	if s, ok := strings.CutPrefix(path, "repro/internal/"); ok {
		return s
	}
	return strings.TrimPrefix(path, "repro/")
}

// pkg names the fields of every struct type p declares at package level.
func (n *fieldNamer) pkg(p *types.Package) {
	if p == nil || n.done[p] {
		return
	}
	n.done[p] = true
	for _, id := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(id).(*types.TypeName); ok && !tn.IsAlias() {
			n.walk(shortPath(p.Path())+"."+id, tn.Type().Underlying())
		}
	}
}

// walk names the fields of t if it is, or holds as an element, an
// anonymous struct type, leaving named fields as they are.
func (n *fieldNamer) walk(prefix string, t types.Type) {
	for {
		switch u := types.Unalias(t).(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i)
				if _, ok := n.names[f]; ok {
					continue
				}
				name := prefix + "." + f.Name()
				n.names[f] = name
				n.walk(name, f.Type())
			}
			return
		default:
			return
		}
	}
}

// local adds the checked fields of f's struct types to declared, first
// naming those of types declared inside a function
// ("pkg.Func.Type.Field") or with no name ("pkg.Func.struct.Field").
func (n *fieldNamer) local(pkg *load.Package, f *ast.File, declared map[string]bool) {
	for _, d := range f.Decls {
		prefix := shortPath(pkg.Path)
		if fd, ok := d.(*ast.FuncDecl); ok {
			if fd.Recv != nil {
				prefix += "." + recvName(fd.Recv.List[0].Type)
			}
			prefix += "." + fd.Name.Name
		}
		ast.Inspect(d, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.TypeSpec:
				if tn, ok := pkg.Info.Defs[x.Name].(*types.TypeName); ok {
					n.walk(prefix+"."+x.Name.Name, tn.Type().Underlying())
				}
			case *ast.StructType:
				n.walk(prefix+".struct", pkg.Info.TypeOf(x))
				for _, field := range x.Fields.List {
					for _, id := range field.Names {
						v, ok := pkg.Info.Defs[id].(*types.Var)
						if ok && id.Name != "_" && field.Tag == nil {
							declared[n.names[v]] = true
						}
					}
				}
			}
			return true
		})
	}
}

// reads adds to read the name of every field a selection in f reads.
// Inspect visits an assignment before its operands, so a written
// selection is known by the time it is reached.
func (n *fieldNamer) reads(info *types.Info, f *ast.File, read map[string]bool) {
	written := map[*ast.SelectorExpr]bool{}
	lhs := func(e ast.Expr) {
		if se, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[se] = true
		}
	}
	ast.Inspect(f, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, e := range x.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(x.X)
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil {
				return true
			}
			n.promoted(sel, read)
			if v, ok := sel.Obj().(*types.Var); ok && sel.Kind() == types.FieldVal && !written[x] {
				n.mark(v, read)
			}
		}
		return true
	})
}

// mark adds v's name to set.
func (n *fieldNamer) mark(v *types.Var, set map[string]bool) {
	v = v.Origin()
	n.pkg(v.Pkg())
	if name, ok := n.names[v]; ok {
		set[name] = true
	}
}

// promoted adds to set the embedded fields sel is promoted through.
func (n *fieldNamer) promoted(sel *types.Selection, set map[string]bool) {
	t := sel.Recv()
	for _, i := range sel.Index()[:len(sel.Index())-1] {
		t = types.Unalias(t)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		n.mark(st.Field(i), set)
		t = st.Field(i).Type()
	}
}

// writes adds to written the name of every field f writes outside a
// withDefaults method: a composite-literal key or position; every field
// on the path of an assignment's or ++/--'s target
// (x.f.g = v writes f and g); every field on the path of &x.f; and every
// field on the path of x.f in a call of a pointer-receiver method that
// takes x.f's address.
func (n *fieldNamer) writes(info *types.Info, f *ast.File, written map[string]bool) {
	path := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					n.promoted(sel, written)
					n.mark(sel.Obj().(*types.Var), written)
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncDecl:
			return x.Recv == nil || x.Name.Name != "withDefaults"
		case *ast.AssignStmt:
			for _, e := range x.Lhs {
				path(e)
			}
		case *ast.IncDecStmt:
			path(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				path(x.X)
			}
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.MethodVal {
				return true
			}
			recv := sel.Obj().Type().(*types.Signature).Recv()
			_, ptrMethod := recv.Type().(*types.Pointer)
			_, ptrOperand := info.TypeOf(x.X).Underlying().(*types.Pointer)
			if ptrMethod && !ptrOperand && !sel.Indirect() {
				path(x.X)
			}
		case *ast.CompositeLit:
			st, ok := info.TypeOf(x).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					n.mark(info.Uses[kv.Key.(*ast.Ident)].(*types.Var), written)
				} else {
					n.mark(st.Field(i), written)
				}
			}
		}
		return true
	})
}
