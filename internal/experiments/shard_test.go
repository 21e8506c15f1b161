package experiments

import (
	"reflect"
	"testing"
)

// TestShardedMatchesSerial is the determinism guarantee behind
// intra-experiment sharding: the engine-backed experiments must produce
// structurally identical Results whether their simulation grids run
// serially (Shards=1) or fanned out over many workers. A small scale
// factor keeps the engine runs fast; the sharding code path is identical
// at any SF.
func TestShardedMatchesSerial(t *testing.T) {
	opts := func(shards int) Options {
		return Options{SF: 2, Concurrency: []int{1, 2}, Shards: shards}
	}
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6"} {
		e, err := byID(id)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := e.Run(opts(1))
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		sharded, err := e.Run(opts(8))
		if err != nil {
			t.Fatalf("%s sharded: %v", id, err)
		}
		if !reflect.DeepEqual(serial, sharded) {
			t.Errorf("%s: sharded run (8 workers) differs from serial run", id)
		}
	}
}
