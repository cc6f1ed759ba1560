package engine

import (
	"math"
	"testing"
)

// TestNarrowStorage pins the storage-width choice at its edge: a
// permutation of [0, 2^31-1) has every value below MaxInt32 and is
// stored in 4 bytes per position, one of [0, 2^31) is not. Nothing of
// that size is allocated: the choice is a function of n alone.
func TestNarrowStorage(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want bool
	}{{0, true}, {1 << 24, true}, {math.MaxInt32, true}, {math.MaxInt32 + 1, false}, {1 << 40, false}} {
		if got := Narrow(c.n); got != c.want {
			t.Errorf("Narrow(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestPosSliceRead: Read widens the stored run starting at any offset,
// values up to MaxInt32 included, and both widths read alike.
func TestPosSliceRead(t *testing.T) {
	vals := []int64{7, 0, math.MaxInt32 - 1, 3, math.MaxInt32, 1 << 30}
	narrow, wide := make(PosSlice[int32], len(vals)), PosSlice[int64](vals)
	for i, v := range vals {
		narrow[i] = int32(v)
	}
	for _, s := range []Positions{narrow, wide} {
		for start := range len(vals) {
			for end := start; end <= len(vals); end++ {
				dst := make([]int64, end-start)
				s.Read(dst, int64(start))
				for k, v := range dst {
					if v != vals[start+k] {
						t.Fatalf("%T: Read at %d: dst[%d] = %d, want %d", s, start, k, v, vals[start+k])
					}
				}
			}
		}
	}
}
