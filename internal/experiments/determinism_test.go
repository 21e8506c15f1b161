package experiments

import (
	"reflect"
	"testing"
)

// TestExperimentsDeterministic reruns every model/dbms-backed experiment
// and requires structurally identical Results — the reproducibility
// guarantee EXPERIMENTS.md relies on. (Engine-backed experiments are
// covered by pstore's own determinism test; rerunning the multi-second
// ones here would double the suite's runtime for no extra signal.)
func TestExperimentsDeterministic(t *testing.T) {
	fast := []string{"table1", "fig1a", "fig1b", "fig2a", "fig2b", "hadoopdb",
		"table2", "table3", "fig10a", "fig10b", "fig11", "fig12"}
	for _, id := range fast {
		e, err := byID(id)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := e.Run(Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		r2, err := e.Run(Options{})
		if err != nil {
			t.Fatalf("%s rerun: %v", id, err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: rerun produced a different result", id)
		}
	}
}
