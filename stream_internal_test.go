package randperm

import (
	"math"
	"testing"
)

// TestNarrowStorage pins the storage-width choice at its edge: a
// permutation of [0, 2^31-1) has every value below MaxInt32 and is
// stored in 4 bytes per position, one of [0, 2^31) is not.
func TestNarrowStorage(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want bool
	}{{0, true}, {1 << 24, true}, {math.MaxInt32, true}, {math.MaxInt32 + 1, false}, {1 << 40, false}} {
		if got := narrow(c.n); got != c.want {
			t.Errorf("narrow(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
