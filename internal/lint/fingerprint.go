package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// fingerprintRoots are the types whose fmt "%#v" rendering is the join
// cache's content key (see pstore.fingerprint). Everything reachable
// from them must render by content: a pointer, channel or func field
// prints as an address, and an interface field as its dynamic value,
// which may be a pointer. Two configs with identical content would then
// fingerprint differently, and the cache would miss. This is the bug
// class that attaching delta.Set to Exec instead of Config avoids.
var fingerprintRoots = []string{"Config", "JoinSpec"}

// Fingerprint walks the types reachable from pstore's cache-key roots
// and flags fields whose kind "%#v" cannot render by content. A field
// is exempt when it carries a //lint:fingerprinted <reason> annotation.
var Fingerprint = &analysis.Analyzer{
	Name:      "fingerprint",
	Directive: "fingerprinted",
	Doc: "keep join-cache content keys free of address-rendered fields\n\n" +
		"The pstore join cache keys results by the %#v rendering of Config and\n" +
		"JoinSpec. Pointer, chan and func fields reachable from those types\n" +
		"render as addresses, and an interface field's dynamic value may be a\n" +
		"pointer, silently defeating content-keying. Keep such fields out of\n" +
		"the key types or annotate the field //lint:fingerprinted <reason>.",
	Run: runFingerprint,
}

func runFingerprint(pass *analysis.Pass) error {
	if pass.Pkg.Name() != "pstore" {
		return nil
	}
	w := &fingerprintWalker{
		pass:       pass,
		fieldDecls: localFieldDecls(pass),
		visited:    map[string]bool{},
	}
	for _, root := range fingerprintRoots {
		obj := pass.Pkg.Scope().Lookup(root)
		if obj == nil {
			continue
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		w.walkStruct(st, root, obj.Pos())
	}
	return nil
}

type fingerprintWalker struct {
	pass       *analysis.Pass
	fieldDecls map[types.Object]*ast.Field
	visited    map[string]bool
}

// localFieldDecls maps struct-field objects declared in this package to
// their AST, so diagnostics anchor on the offending field and directive
// suppression works on its line.
func localFieldDecls(pass *analysis.Pass) map[types.Object]*ast.Field {
	m := map[types.Object]*ast.Field{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						m[obj] = fld
					}
				}
			}
			return true
		})
	}
	return m
}

// walkStruct visits every field of st. path is the dotted route from
// the root type; anchor is the position of the nearest enclosing field
// declared in this package (imported types' fields have no local AST).
func (w *fingerprintWalker) walkStruct(st *types.Struct, path string, anchor token.Pos) {
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		fpath := path + "." + fld.Name()
		fanchor := anchor
		if decl, ok := w.fieldDecls[fld]; ok {
			fanchor = decl.Pos()
		}
		w.walkType(fld.Type(), fpath, fanchor)
	}
}

func (w *fingerprintWalker) walkType(t types.Type, path string, anchor token.Pos) {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		w.report(path, anchor, t, "a pointer renders as its address")
	case *types.Chan:
		w.report(path, anchor, t, "a channel has no content rendering")
	case *types.Signature:
		w.report(path, anchor, t, "a func value has no content rendering")
	case *types.Interface:
		w.report(path, anchor, t, "an interface renders its dynamic value, which may be a pointer")
	case *types.Struct:
		key := t.String()
		if w.visited[key] {
			return
		}
		w.visited[key] = true
		w.walkStruct(u, path, anchor)
	case *types.Slice:
		w.walkType(u.Elem(), path+"[]", anchor)
	case *types.Array:
		w.walkType(u.Elem(), path+"[]", anchor)
	case *types.Map:
		w.walkType(u.Key(), path+"[key]", anchor)
		w.walkType(u.Elem(), path+"[]", anchor)
	}
}

func (w *fingerprintWalker) report(path string, anchor token.Pos, t types.Type, why string) {
	w.pass.Reportf(anchor, "cache-key field %s (type %s) defeats content fingerprinting under %%#v: %s; keep it out of the key or annotate //lint:fingerprinted <reason>", path, t, why)
}
