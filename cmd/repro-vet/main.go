// Command repro-vet runs the repo's determinism and resource-invariant
// analyzers (internal/lint) over Go packages: the machine-checked
// version of the rules that keep every experiment's output
// byte-identical across -shards and join-cache hits.
//
// Usage (CI runs this):
//
//	go run ./cmd/repro-vet ./...
//	repro-vet -list              # describe the analyzers
//	repro-vet -only maporder ./...
//
// Exit status: 0 clean, 1 findings reported, 2 usage or load error.
//
// Diagnostics in _test.go files are suppressed: tests may exercise the
// nondeterminism the engine forbids.
//
// Suppressions: a finding is silenced by the analyzer's directive
// comment with a mandatory justification, e.g.
//
//	//lint:ordered merge order does not affect the folded sum
//
// on the flagged line or the line above. A directive with no reason is
// itself a finding. Directives: nodeterm=//lint:deterministic,
// maporder=//lint:ordered, fingerprint=//lint:fingerprinted,
// cursorclose=//lint:closed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/load"
)

func main() {
	var (
		list = flag.Bool("list", false, "describe the analyzers and exit")
		only = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repro-vet [-list] [-only names] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro-vet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro-vet:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro-vet:", err)
		os.Exit(2)
	}
	if len(diags) == 0 {
		return
	}
	// One package set shares one FileSet (load.Packages), so any
	// package's Fset positions all diagnostics.
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	os.Exit(1)
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := lint.All()
	if only == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: nodeterm, maporder, fingerprint, cursorclose)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
