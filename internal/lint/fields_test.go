//go:build go1.23

package lint_test

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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
}

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
	bench, err := load.Packages("../../benchmark", "./...")
	if err != nil {
		t.Fatalf("loading the benchmark module: %v", err)
	}
	fields := unreadFields(pkgs, bench)
	used := map[string]bool{}
	for _, name := range fields {
		if unread[name] != "" {
			used[name] = true
			continue
		}
		t.Errorf("%s: no program reads it; delete it with what feeds it, or add it to unread with a reason", name)
	}
	for key, why := range unread {
		if !used[key] {
			t.Errorf("unread[%q] (%s) names no unread field", key, why)
		}
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

// unreadFields returns, sorted, the named and untagged fields of the
// struct types that decl's files declare, which no field selection in
// decl or readers reads. A selection that is the whole left operand of
// =, := or an op-assignment, or the operand of ++/--, writes its field;
// the selections inside that operand (t.p in t.p.f = 1, t.i in
// t.m[t.i] = 1) still read theirs. A composite-literal key is no
// selection, so it writes. A selection promoted through embedded fields
// reads every field on its path.
func unreadFields(decl []*load.Package, readers ...[]*load.Package) []string {
	n := fieldNamer{names: map[*types.Var]string{}, done: map[*types.Package]bool{}}
	declared := map[string]bool{}
	for _, pkg := range decl {
		n.pkg(pkg.Types)
		for _, f := range pkg.Files {
			n.local(pkg, f, declared)
		}
	}
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
	mark := func(v *types.Var) {
		v = v.Origin()
		n.pkg(v.Pkg())
		if name, ok := n.names[v]; ok {
			read[name] = true
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
			// The embedded fields the selection is promoted through.
			t := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				t = types.Unalias(t)
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				mark(st.Field(i))
				t = st.Field(i).Type()
			}
			if v, ok := sel.Obj().(*types.Var); ok && sel.Kind() == types.FieldVal && !written[x] {
				mark(v)
			}
		}
		return true
	})
}
