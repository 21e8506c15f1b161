package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// Cursorclose tracks values with a cursor shape — storage.Cursor's (a
// Next returning (_, bool) plus a niladic Close) or the task form of a
// scan (a Pull taking a *sim.Task plus a niladic Close) — obtained from a
// call: a scan, MergedCursor, or any cursor constructor. An open cursor pins
// simulated resources: a cold scan's disk pump keeps booking I/O until
// the cursor is closed or drained, so a leaked cursor silently inflates
// energy and wall-clock figures. Within the defining function the
// cursor must either be closed (directly or deferred — the check is
// intraprocedural and any-path, not all-paths) or handed off: passed to
// a call, returned, stored into a struct/slice/map/channel, or captured
// by address. A cursor whose only uses are Next pulls, or whose
// producing call's result is discarded outright, is reported. Suppress
// with //lint:closed <reason>.
var Cursorclose = &analysis.Analyzer{
	Name:      "cursorclose",
	Directive: "closed",
	Doc: "every cursor obtained from a constructor must be closed or handed off\n\n" +
		"storage.Cursor values pin simulated resources (disk pumps, queues) until\n" +
		"closed. A cursor that is only ever pulled from, or discarded at the call\n" +
		"site, leaks those resources into the energy accounting.",
	Run: runCursorclose,
}

func runCursorclose(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncCursors(pass, fd.Body)
		}
	}
	return nil
}

// isCursorType reports whether t has a cursor shape: a method set (of t
// or *t) containing Close() and either Next() (_, bool) or Pull(*sim.Task).
func isCursorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	hasMethod := func(name string, check func(*types.Signature) bool) bool {
		for _, typ := range []types.Type{t, types.NewPointer(t)} {
			obj, _, _ := types.LookupFieldOrMethod(typ, true, nil, name)
			if fn, ok := obj.(*types.Func); ok && check(fn.Type().(*types.Signature)) {
				return true
			}
		}
		return false
	}
	closeOK := hasMethod("Close", func(s *types.Signature) bool {
		return s.Params().Len() == 0 && s.Results().Len() == 0
	})
	nextOK := hasMethod("Next", func(s *types.Signature) bool {
		if s.Params().Len() != 0 || s.Results().Len() != 2 {
			return false
		}
		b, ok := s.Results().At(1).Type().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Bool
	})
	pullOK := hasMethod("Pull", func(s *types.Signature) bool {
		if s.Params().Len() != 1 {
			return false
		}
		p, ok := s.Params().At(0).Type().(*types.Pointer)
		if !ok {
			return false
		}
		named, ok := p.Elem().(*types.Named)
		return ok && named.Obj().Name() == "Task" && named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "sim"
	})
	return closeOK && (nextOK || pullOK)
}

// cursorResults reports which result positions of call yield a
// cursor-shaped value, or nil when none do.
func cursorResults(pass *analysis.Pass, call *ast.CallExpr) []bool {
	t := pass.TypeOf(call)
	if t == nil {
		return nil
	}
	if tup, ok := t.(*types.Tuple); ok {
		out := make([]bool, tup.Len())
		found := false
		for i := 0; i < tup.Len(); i++ {
			if isCursorType(tup.At(i).Type()) {
				out[i] = true
				found = true
			}
		}
		if !found {
			return nil
		}
		return out
	}
	if isCursorType(t) {
		return []bool{true}
	}
	return nil
}

func checkFuncCursors(pass *analysis.Pass, body *ast.BlockStmt) {
	par := parents(body)

	// Pass 1: find cursor origins — calls whose cursor result is bound
	// to a local variable or discarded.
	type origin struct {
		obj  types.Object
		call *ast.CallExpr
	}
	var tracked []origin
	track := func(lhs ast.Expr, call *ast.CallExpr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return // stored into a field/index: handed off
		}
		if id.Name == "_" {
			pass.Reportf(call.Pos(), "cursor returned here is discarded via _: close it or hand it to a consumer (//lint:closed <reason> to suppress)")
			return
		}
		if obj := pass.ObjectOf(id); obj != nil {
			tracked = append(tracked, origin{obj, call})
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Only genuine calls: a conversion like storage.Cursor(x) or a
		// builtin is not a constructor.
		if _, isFunc := pass.TypeOf(call.Fun).(*types.Signature); !isFunc {
			return true
		}
		cr := cursorResults(pass, call)
		if cr == nil {
			return true
		}
		switch p := par[call].(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "cursor returned here is discarded: close it or hand it to a consumer (//lint:closed <reason> to suppress)")
		case *ast.AssignStmt:
			if len(p.Rhs) == 1 && p.Rhs[0] == ast.Expr(call) && len(p.Lhs) == len(cr) &&
				(p.Tok == token.DEFINE || p.Tok == token.ASSIGN) {
				for i, isCur := range cr {
					if isCur {
						track(p.Lhs[i], call)
					}
				}
			}
		case *ast.ValueSpec:
			if len(p.Values) == 1 && p.Values[0] == ast.Expr(call) && len(p.Names) == len(cr) {
				for i, isCur := range cr {
					if isCur {
						track(p.Names[i], call)
					}
				}
			}
		}
		return true
	})

	// Pass 2: classify every use of each tracked cursor variable. The
	// defining occurrence is a Def, not a Use, so it never self-escapes.
	for _, o := range tracked {
		closed, escaped := false, false
		ast.Inspect(body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || pass.Info.Uses[id] != o.obj {
				return true
			}
			switch p := par[id].(type) {
			case *ast.SelectorExpr:
				if p.X != ast.Expr(id) {
					return true
				}
				if call, ok := par[p].(*ast.CallExpr); ok && call.Fun == ast.Expr(p) {
					if p.Sel.Name == "Close" {
						closed = true
					}
					return true // other method pulls are neutral
				}
				escaped = true // method value or field access: hand-off
			case *ast.AssignStmt:
				for _, r := range p.Rhs {
					if r == ast.Expr(id) {
						escaped = true // copied/stored somewhere
					}
				}
			case *ast.CallExpr:
				for _, a := range p.Args {
					if a == ast.Expr(id) {
						escaped = true // handed to a consumer
					}
				}
			case *ast.ValueSpec, *ast.ReturnStmt, *ast.UnaryExpr, *ast.CompositeLit,
				*ast.KeyValueExpr, *ast.SendStmt, *ast.IndexExpr:
				escaped = true
			}
			return true
		})
		if !closed && !escaped {
			pass.Reportf(o.call.Pos(), "cursor %q is never closed or handed off: add a defer %s.Close() or pass it to a consuming operator (//lint:closed <reason> to suppress)",
				o.obj.Name(), o.obj.Name())
		}
	}
}
