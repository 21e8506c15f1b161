// Package analysistest runs a lint analyzer over fixture packages under
// a testdata/src tree and checks its diagnostics against expectations
// written in the fixtures themselves — the offline, stdlib-only
// analogue of golang.org/x/tools/go/analysis/analysistest.
//
// Expectations are comments of the form
//
//	code() // want "regexp"
//	code() // want "first" "second"
//	code() // want "here" @-1 "on the line above"
//
// Every reported diagnostic must match one expectation on its line (an
// @N offset moves the expectation N lines relative to the comment), and
// every expectation must be matched by exactly one diagnostic; either
// direction failing fails the test. A fixture with a want comment
// therefore proves the analyzer is not vacuous: remove the analyzer's
// detection and the unmatched expectation turns the test red.
//
// Fixture packages import sibling fixtures by their path under
// testdata/src; all other imports resolve through the standard
// library's compiled export data (the gc importer's own `go list -export`
// lookup), so fixtures may use the standard library and nothing else.
package analysistest

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"

	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

// Run analyzes each fixture package (a directory under testdata/src)
// with a and verifies the diagnostics against the fixtures' want
// comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	im := newFixtureImporter(filepath.Join(testdata, "src"))
	for _, pkg := range pkgs {
		lp, err := im.loadFixture(pkg)
		if err != nil {
			t.Errorf("%s: loading fixture %s: %v", a.Name, pkg, err)
			continue
		}
		pass := analysis.NewPass(a, lp.Fset, lp.Files, lp.Types, lp.Info)
		diags, err := pass.Finish()
		if err != nil {
			t.Errorf("%s: %v", a.Name, err)
			continue
		}
		checkExpectations(t, a, lp, diags)
	}
}

// expectation is one want clause, anchored to a file line.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// wantToken matches one element of a want clause: an @offset or a
// quoted regexp (double quotes or backticks).
var wantToken = regexp.MustCompile("^\\s*(?:@(-?\\d+)|\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

var wantClause = regexp.MustCompile(`//\s*want\s(.*)$`)

func parseExpectations(t *testing.T, lp *load.Package) []*expectation {
	t.Helper()
	var exps []*expectation
	for _, f := range lp.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantClause.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := lp.Fset.Position(c.Pos())
				rest, offset := m[1], 0
				for {
					tok := wantToken.FindStringSubmatch(rest)
					if tok == nil {
						break
					}
					rest = rest[len(tok[0]):]
					switch {
					case tok[1] != "":
						offset, _ = strconv.Atoi(tok[1])
					default:
						text := tok[3]
						if tok[3] == "" {
							unq, err := strconv.Unquote(`"` + tok[2] + `"`)
							if err != nil {
								t.Fatalf("%s:%d: bad want string %q: %v", pos.Filename, pos.Line, tok[2], err)
							}
							text = unq
						}
						rx, err := regexp.Compile(text)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, text, err)
						}
						exps = append(exps, &expectation{file: pos.Filename, line: pos.Line + offset, rx: rx})
					}
				}
			}
		}
	}
	return exps
}

func checkExpectations(t *testing.T, a *analysis.Analyzer, lp *load.Package, diags []analysis.Diagnostic) {
	t.Helper()
	exps := parseExpectations(t, lp)
	for _, d := range diags {
		pos := lp.Fset.Position(d.Pos)
		found := false
		for _, e := range exps {
			if !e.matched && e.file == pos.Filename && e.line == pos.Line && e.rx.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic at %s: %s", a.Name, pos, d.Message)
		}
	}
	for _, e := range exps {
		if !e.matched {
			t.Errorf("%s: no diagnostic at %s:%d matching %q", a.Name, e.file, e.line, e.rx)
		}
	}
}

// fixtureImporter resolves fixture-sibling packages from testdata/src
// and the standard library through compiled export data. One instance
// serves one Run call so type identity is consistent across packages.
type fixtureImporter struct {
	src    string
	fset   *token.FileSet
	loaded map[string]*load.Package
	gc     types.Importer
}

func newFixtureImporter(src string) *fixtureImporter {
	fset := token.NewFileSet()
	return &fixtureImporter{
		src:    src,
		fset:   fset,
		loaded: map[string]*load.Package{},
		gc:     importer.ForCompiler(fset, "gc", nil),
	}
}

// Import implements types.Importer for the fixture packages'
// dependencies.
func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if lp, ok := im.loaded[path]; ok {
		return lp.Types, nil
	}
	if st, err := os.Stat(filepath.Join(im.src, path)); err == nil && st.IsDir() {
		lp, err := im.loadFixture(path)
		if err != nil {
			return nil, err
		}
		return lp.Types, nil
	}
	return im.gc.Import(path)
}

// loadFixture parses and typechecks one fixture package from
// testdata/src/<path>.
func (im *fixtureImporter) loadFixture(path string) (*load.Package, error) {
	if lp, ok := im.loaded[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(im.src, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	lp, err := load.Check(im.fset, path, files, im)
	if err != nil {
		return nil, err
	}
	im.loaded[path] = lp
	return lp, nil
}
