// Package load turns `go list` package patterns into parsed,
// typechecked packages for the lint analyzers — the offline analogue of
// golang.org/x/tools/go/packages. It shells out to
// `go list -deps -export -json`, which compiles (or reuses from the
// build cache) export data for every dependency, then typechecks each
// target package from source with the gc export-data importer. This is
// the same shape `go vet` uses, works fully offline, and never loads a
// dependency's syntax — only the packages being analyzed are parsed.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one typechecked target package.
type Package struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// golist runs `go list -deps -export` over patterns in dir and decodes
// the package stream.
func golist(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Packages loads and typechecks every package matched by patterns,
// resolving imports through compiled export data. dir is the directory
// `go list` runs in (the module root, typically ".").
func Packages(dir string, patterns ...string) ([]*Package, error) {
	listed, err := golist(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []listPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(t.GoFiles))
		for i, n := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, n)
		}
		pkg, err := Check(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// exportImporter returns a types.Importer that resolves import paths
// through the given map of compiled export-data files.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// Check parses the named files and typechecks them as one package,
// resolving imports through imp. Parse or type errors fail the load:
// the analyzers require a fully typechecked tree.
func Check(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", fn, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %v", path, err)
	}
	return &Package{
		Path:  path,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
