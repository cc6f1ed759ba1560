package core

import "fmt"

// CheckPermutation verifies that out is a rearrangement of in: the same
// multiset of values, with block sizes matching wantSizes. It is the
// correctness oracle the tests use.
func CheckPermutation[T comparable](in, out [][]T, wantSizes []int64) error {
	if len(out) != len(wantSizes) {
		return fmt.Errorf("core: %d output blocks, want %d", len(out), len(wantSizes))
	}
	for i, b := range out {
		if int64(len(b)) != wantSizes[i] {
			return fmt.Errorf("core: output block %d has %d items, want %d", i, len(b), wantSizes[i])
		}
	}
	counts := make(map[T]int64)
	var nIn, nOut int64
	for _, b := range in {
		for _, v := range b {
			counts[v]++
			nIn++
		}
	}
	for _, b := range out {
		for _, v := range b {
			counts[v]--
			nOut++
		}
	}
	if nIn != nOut {
		return fmt.Errorf("core: %d items in, %d items out", nIn, nOut)
	}
	for v, c := range counts {
		if c != 0 {
			return fmt.Errorf("core: multiset mismatch at value %v (delta %d)", v, c)
		}
	}
	return nil
}

// Iota returns the identity vector 0..n-1 as int64, the canonical test
// payload: after a permutation the multiset is still 0..n-1 and the
// arrangement encodes the permutation itself.
func Iota(n int64) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i)
	}
	return v
}
