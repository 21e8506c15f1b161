// Package lint is repro-vet's analyzer suite: custom static checks
// that machine-verify the invariants this reproduction's byte-identical
// output depends on. Every figure must reproduce exactly across
// -shards and join-cache hits; the properties that make that true used
// to live only in comments and after-the-fact DeepEqual tests. These
// analyzers move them to `go vet` time:
//
//   - nodeterm: no wall-clock, global-rand, environment or raw-
//     goroutine nondeterminism inside the simulated-code packages;
//   - maporder: no map-iteration order leaking into slices, channels,
//     result rows, DES event schedules or float accumulators;
//   - fingerprint: no pointer/chan/func/interface fields reachable from
//     the join-cache content key, whose %#v rendering would key them by
//     address;
//   - cursorclose: every storage.Cursor obtained from a constructor is
//     closed or handed off.
//
// Findings are suppressed (with a mandatory written justification) by a
// //lint:<directive> comment; see the analysis package.
package lint

import (
	"go/ast"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// All returns the full analyzer suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Nodeterm, Maporder, Fingerprint, Cursorclose}
}

// Run executes every analyzer over every package and returns the
// combined findings. Findings positioned in _test.go files are dropped:
// repro-vet checks shipped simulation code, and tests legitimately
// exercise nondeterminism (timeouts, race probes) that the analyzers
// forbid in the engine.
func Run(analyzers []*analysis.Analyzer, pkgs []*load.Package) ([]analysis.Diagnostic, error) {
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
			diags, err := pass.Finish()
			if err != nil {
				return nil, err
			}
			for _, d := range diags {
				if strings.HasSuffix(pkg.Fset.Position(d.Pos).Filename, "_test.go") {
					continue
				}
				all = append(all, d)
			}
		}
	}
	return all, nil
}

// parents maps every AST node in a subtree to its parent, for the
// analyzers that classify an identifier's use by its syntactic context.
func parents(root ast.Node) map[ast.Node]ast.Node {
	m := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			m[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return m
}
