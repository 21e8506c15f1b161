package lint

import (
	"go/ast"

	"repro/internal/lint/analysis"
)

// simulatedPkgs names the packages whose code runs inside (or feeds)
// the discrete-event simulation. Everything here must be a pure
// function of its inputs and the DES clock: a wall-clock read, a global
// rand draw or an environment probe makes two identical runs diverge,
// which the byte-identity tests can only catch after the fact and only
// on the paths they happen to cover. Matching is by the import path's
// final element so the analyzer works identically on the real tree and
// on test fixtures.
var simulatedPkgs = map[string]bool{
	"sim":         true,
	"pstore":      true,
	"delta":       true,
	"workload":    true,
	"experiments": true,
	"fault":       true,
	"replay":      true,
	"fairq":       true,
}

// timeFuncs are the wall-clock reads and timer constructors forbidden
// in simulated code; simulated time comes from sim.Proc.Now.
var timeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandFuncs are the math/rand (and v2) top-level draws backed by
// the shared, unseeded global source. Constructing an explicit seeded
// generator (rand.New(rand.NewSource(seed))) is fine and is how the
// workload generators get reproducible randomness.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "NormFloat64": true,
	"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true, "N": true, "IntN": true, "Int32N": true,
	"Int64N": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// envFuncs are the os environment probes: simulated behaviour must be a
// function of explicit configuration, never of the host environment.
var envFuncs = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

// Nodeterm forbids nondeterminism sources inside the simulated-code
// packages: wall-clock time, the global math/rand source, environment
// reads, raw goroutine spawns and multi-way selects (both are scheduled
// by the Go runtime, not the DES). Suppress a deliberate use with
// //lint:deterministic <why it cannot diverge>.
var Nodeterm = &analysis.Analyzer{
	Name:      "nodeterm",
	Directive: "deterministic",
	Doc: "forbid wall-clock, global-rand, env and goroutine-racy constructs in simulated code\n\n" +
		"Packages " + "sim, pstore, delta, workload, experiments, fault, replay and fairq" + " run\n" +
		"inside (or deterministically feed) the discrete-event simulation; any runtime- or\n" +
		"host-dependent input there breaks byte-identical reproduction across -shards,\n" +
		"cache hits and trace replays.",
	Run: runNodeterm,
}

func runNodeterm(pass *analysis.Pass) error {
	if !simulatedPkgs[lastPathElem(pass.Pkg.Path())] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNodetermCall(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine spawned in simulated code: runtime scheduling order is nondeterministic; drive concurrency through the DES engine or justify with //lint:deterministic")
			case *ast.SelectStmt:
				comms := 0
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						comms++
					}
				}
				if comms >= 2 {
					pass.Reportf(n.Pos(), "select over %d channels in simulated code: the runtime picks a ready case at random; serialize through the DES engine or justify with //lint:deterministic", comms)
				}
			}
			return true
		})
	}
	return nil
}

func checkNodetermCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pn := pass.PkgNameOf(sel.X)
	if pn == nil {
		return
	}
	fn := sel.Sel.Name
	switch pn.Imported().Path() {
	case "time":
		if timeFuncs[fn] {
			pass.Reportf(call.Pos(), "wall-clock source time.%s in simulated code: use the DES clock (sim.Proc.Now) so runs reproduce byte-identically", fn)
		}
	case "math/rand", "math/rand/v2":
		if globalRandFuncs[fn] {
			pass.Reportf(call.Pos(), "global math/rand source rand.%s in simulated code: draw from an explicitly seeded rand.New(rand.NewSource(seed)) threaded through the config", fn)
		}
	case "os":
		if envFuncs[fn] {
			pass.Reportf(call.Pos(), "environment read os.%s in simulated code: simulated behaviour must depend only on explicit configuration", fn)
		}
	}
}

func lastPathElem(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
