// Package runner is the concurrent experiment harness: it fans the
// experiment registry (or any ID subset) out over a bounded worker pool
// and collects per-experiment results, errors and wall times.
//
// Every experiment constructs its own private sim.Engine and cluster, so
// experiments are embarrassingly parallel; the runner exploits that while
// guaranteeing the output is indistinguishable from a serial run: results
// are always returned in registry order, and each result is bit-identical
// to what serial execution produces (asserted by TestParallelMatchesSerial).
//
// Rendering lives in internal/report (Text, Markdown, JSON emitters);
// the worker pool is internal/par's Map.
package runner

import (
	"errors"
	"fmt"
	"path"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/par"
)

// Result is the outcome of one experiment run.
type Result struct {
	Experiment experiments.Experiment
	Result     experiments.Result
	Err        error
	// Wall is host (not virtual) execution time.
	Wall time.Duration
}

// Options configures a run.
type Options struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Exp is handed to every experiment's Run: scale factor, the join
	// runner, intra-experiment shard workers and the fault seed.
	// Inject a shared *pstore.Cache via Exp.Joins so experiments that
	// re-simulate the same join share engine runs across the suite.
	Exp experiments.Options
}

// Run executes the given experiments on a bounded worker pool and returns
// one Result per experiment, in input order regardless of completion
// order. Every experiment runs; the error is nil only if every one
// succeeded, otherwise it is the join of all failures.
func Run(exps []experiments.Experiment, opts Options) ([]Result, error) {
	results, _ := par.Map(opts.Workers, exps, func(_ int, e experiments.Experiment) (Result, error) {
		start := time.Now()
		res, err := e.Run(opts.Exp)
		if err != nil {
			err = fmt.Errorf("%s: %w", e.ID, err)
		}
		return Result{Experiment: e, Result: res, Err: err, Wall: time.Since(start)}, nil
	})
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return results, errors.Join(errs...)
}

// RunIDs resolves the given ID patterns (see Select) and runs the
// selection.
func RunIDs(patterns []string, opts Options) ([]Result, error) {
	exps, err := Select(patterns...)
	if err != nil {
		return nil, err
	}
	return Run(exps, opts)
}

// Select resolves ID patterns against the registry, preserving registry
// (paper) order and deduplicating. A pattern is an exact experiment ID,
// the keyword "all", or a glob in path.Match syntax ("fig*", "table?",
// "fig1[ab]"). A pattern matching nothing is an error listing the known
// IDs.
func Select(patterns ...string) ([]experiments.Experiment, error) {
	reg := experiments.Registry()
	if len(patterns) == 0 {
		return reg, nil
	}
	picked := make([]bool, len(reg))
	for _, pat := range patterns {
		if pat == "all" || pat == "*" {
			for i := range picked {
				picked[i] = true
			}
			continue
		}
		matched := false
		for i, e := range reg {
			ok, err := path.Match(pat, e.ID)
			if err != nil {
				return nil, fmt.Errorf("runner: bad pattern %q: %w", pat, err)
			}
			if ok {
				picked[i] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("runner: pattern %q matches no experiment (have %s)",
				pat, strings.Join(experiments.IDs(), ", "))
		}
	}
	var out []experiments.Experiment
	for i, e := range reg {
		if picked[i] {
			out = append(out, e)
		}
	}
	return out, nil
}
