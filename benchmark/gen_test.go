package main

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/replay"
	"repro/internal/service"
)

func TestRequestBodiesAreAFunctionOfTheSeed(t *testing.T) {
	differ := 0
	for i := 0; i < 500; i++ {
		if !bytes.Equal(missBody(7, i), missBody(7, i)) {
			t.Fatalf("serve_miss request %d differs between two calls with one seed", i)
		}
		a, specA := hitBody(7, i)
		b, specB := hitBody(7, i)
		if !bytes.Equal(a, b) || specA != specB {
			t.Fatalf("serve_hit request %d differs between two calls with one seed", i)
		}
		if !bytes.Equal(missBody(7, i), missBody(8, i)) {
			differ++
		}
	}
	if differ < 490 {
		t.Errorf("only %d of 500 serve_miss requests differ between seeds 7 and 8", differ)
	}
}

func TestMissSpecsAreDistinctAndValid(t *testing.T) {
	seen := make(map[string]int)
	for i := 0; i < 20_000; i++ {
		body := missBody(3, i)
		req, err := service.Decode(body, false)
		if err != nil {
			t.Fatalf("request %d does not decode strictly: %v\n%s", i, err, body)
		}
		if _, err := req.Join.Spec(); err != nil {
			t.Fatalf("request %d is not a valid join: %v", i, err)
		}
		key := joinParams(3, i)
		if j, dup := seen[key]; dup {
			t.Fatalf("requests %d and %d share the join %s: the second would be a memo hit", j, i, key)
		}
		seen[key] = i
	}
}

func TestHitSpecsCoverTheWorkingSet(t *testing.T) {
	seen := make(map[int]bool)
	for i := 0; i < 2_000; i++ {
		_, spec := hitBody(1, i)
		seen[spec] = true
	}
	if len(seen) != hitSpecs {
		t.Errorf("2000 requests touched %d of %d specs", len(seen), hitSpecs)
	}
}

func TestFloodTraceIsAFunctionOfTheSeed(t *testing.T) {
	a := replay.Synthetic(2_000, floodTenants, 0.8, 5)
	b := replay.Synthetic(2_000, floodTenants, 0.8, 5)
	c := replay.Synthetic(2_000, floodTenants, 0.8, 6)
	if !reflect.DeepEqual(a, b) {
		t.Error("two flood traces of one seed differ")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("flood traces of seeds 5 and 6 are identical")
	}
}
