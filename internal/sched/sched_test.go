package sched

import "testing"

func TestImmediateRunsAtArrival(t *testing.T) {
	for _, arr := range []float64{0, 1, 59.9, 60, 1e6} {
		if got := (Immediate{}).ReleaseAt(arr); got != arr {
			t.Fatalf("ReleaseAt(%v) = %v, want the arrival", arr, got)
		}
	}
}

func TestBatchedReleaseBoundaries(t *testing.T) {
	b := Batched{Window: 60}
	cases := map[float64]float64{0: 0, 1: 60, 59.9: 60, 60: 60, 61: 120}
	for arr, want := range cases {
		if got := b.ReleaseAt(arr); got != want {
			t.Fatalf("ReleaseAt(%v) = %v, want %v", arr, got, want)
		}
	}
	if (Batched{}).ReleaseAt(17) != 17 {
		t.Fatal("zero window must behave as immediate")
	}
}

func TestPolicyStrings(t *testing.T) {
	if (Immediate{}).String() != "immediate" {
		t.Fatal("Immediate string")
	}
	if (Batched{Window: 60}).String() != "batched(60s)" {
		t.Fatal("Batched string")
	}
}
