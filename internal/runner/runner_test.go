package runner

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/pstore"
)

// TestParallelMatchesSerial is the runner's core guarantee: typed
// results from a parallel run are identical to serial execution.
// The subset covers each experiment family: a config table (table1), a
// dbms-simulated figure (fig1a), a P-store-engine figure (fig3) and the
// model-level design walkthrough (fig12).
func TestParallelMatchesSerial(t *testing.T) {
	ids := []string{"table1", "fig1a", "fig3", "fig12"}

	serial, err := RunIDs(ids, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunIDs(ids, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(ids) || len(parallel) != len(ids) {
		t.Fatalf("got %d serial / %d parallel results, want %d", len(serial), len(parallel), len(ids))
	}
	for i := range serial {
		if serial[i].Experiment.ID != ids[i] || parallel[i].Experiment.ID != ids[i] {
			t.Fatalf("result %d out of order: serial=%s parallel=%s want %s",
				i, serial[i].Experiment.ID, parallel[i].Experiment.ID, ids[i])
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("%s: parallel result differs from serial", ids[i])
		}
	}
}

func TestSelectUnknownID(t *testing.T) {
	if _, err := RunIDs([]string{"fig99"}, Options{}); err == nil {
		t.Fatal("unknown id did not error")
	} else if !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("error %q does not name the bad id", err)
	}
	if _, err := Select("tabel1"); err == nil {
		t.Fatal("typo id did not error")
	}
}

func TestSelectGlobs(t *testing.T) {
	exps, err := Select("fig1*", "table1")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	// Registry order, deduplicated: table1 precedes the fig1x entries,
	// and fig1* also matches fig10a/fig10b/fig11/fig12.
	want := []string{"table1", "fig1a", "fig1b", "fig10a", "fig10b", "fig11", "fig12"}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Fatalf("Select globs = %v, want %v", ids, want)
	}

	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments.Registry()) {
		t.Fatalf("Select(all) = %d experiments, want %d", len(all), len(experiments.Registry()))
	}
}

// failing builds a synthetic registry-shaped slice with one failing entry.
func failing(n, failAt int) []experiments.Experiment {
	exps := make([]experiments.Experiment, n)
	for i := range exps {
		i := i
		exps[i] = experiments.Experiment{
			ID:    fmt.Sprintf("x%02d", i),
			Title: "synthetic",
			Run: func(experiments.Options) (experiments.Result, error) {
				if i == failAt {
					return experiments.Result{}, errors.New("boom")
				}
				return experiments.Result{ID: fmt.Sprintf("x%02d", i)}, nil
			},
		}
	}
	return exps
}

func TestCollectAllErrors(t *testing.T) {
	exps := failing(6, 2)
	exps[4].Run = func(experiments.Options) (experiments.Result, error) { return experiments.Result{}, errors.New("bang") }
	results, err := Run(exps, Options{Workers: 3})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "bang") {
		t.Fatalf("collect-all error = %v, want both failures joined", err)
	}
	for i, r := range results {
		if i == 2 || i == 4 {
			if r.Err == nil {
				t.Errorf("result %d: expected error", i)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("result %d: unexpected error %v", i, r.Err)
		}
	}
}

// TestSharedCacheAcrossSuite plumbs a shared pstore.Cache through
// Options.Exp and proves a suite run performs strictly fewer engine
// invocations than the per-experiment sum, while the results stay
// identical to uncached execution.
func TestSharedCacheAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("engine experiments")
	}
	ids := []string{"fig3", "fig4", "fig5"}
	uncached, err := RunIDs(ids, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := pstore.NewCache(nil)
	cached, err := RunIDs(ids, Options{Exp: experiments.Options{Joins: cache}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if !reflect.DeepEqual(uncached[i].Result, cached[i].Result) {
			t.Errorf("%s: cached result differs from uncached", ids[i])
		}
	}
	s := cache.Stats()
	if s.Hits == 0 {
		t.Errorf("no joins shared across %v: %+v", ids, s)
	}
	if s.Misses >= s.Requests() {
		t.Errorf("engine invocations (%d) not strictly fewer than per-experiment sum (%d)", s.Misses, s.Requests())
	}
}
