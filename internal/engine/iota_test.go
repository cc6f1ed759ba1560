package engine

import (
	"fmt"
	"testing"
)

// iota_test.go pins the index builds to the slice forms: PermuteIota
// must return exactly the bytes its backend's slice form computes over
// the identity, in either storage type, because the permutation a
// materialized Permuter serves is defined as that slice form's output.

func sameAs[T int32 | int64](t *testing.T, what string, got []T, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if int64(got[i]) != want[i] {
			t.Fatalf("%s: diverged at %d: %d != %d", what, i, got[i], want[i])
		}
	}
}

// TestPermuteFlatIotaDeepRecursion forces the scatter and the
// Rao-Sandelius recursion on the index path with tiny cutoffs, as
// TestPermuteFlatDeepRecursion does for permuteFlat, and holds it to
// permuteFlat over the identity for every worker count.
func TestPermuteFlatIotaDeepRecursion(t *testing.T) {
	for _, n := range []int{0, 1, 71, 72, 73, 5000} {
		want, err := permuteFlat(iota64(n), 4, Options{Seed: 77}, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4, 9} {
			opt := Options{Workers: w, Seed: 77}
			got32, err := permuteFlatIota[int32](n, 4, opt, 64, 8)
			if err != nil {
				t.Fatal(err)
			}
			sameAs(t, fmt.Sprintf("int32 n=%d workers=%d", n, w), got32, want)
			got64, err := permuteFlatIota[int64](n, 4, opt, 64, 8)
			if err != nil {
				t.Fatal(err)
			}
			sameAs(t, fmt.Sprintf("int64 n=%d workers=%d", n, w), got64, want)
		}
	}
}

// TestPermuteIotaErrors: the backends without an index build, and a
// zero decomposition width, are refused rather than mis-built.
func TestPermuteIotaErrors(t *testing.T) {
	for _, b := range []Backend{Sim, Bijective} {
		if _, err := PermuteIota[int64](b, 10, 4, Options{}); err == nil {
			t.Errorf("%v: index build accepted", b)
		}
	}
	for _, b := range []Backend{InPlace, Cluster} {
		if _, err := PermuteIota[int64](b, 10, 0, Options{}); err == nil {
			t.Errorf("%v: p = 0 accepted", b)
		}
	}
}
