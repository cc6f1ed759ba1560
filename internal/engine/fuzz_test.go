// Native fuzz targets for the bijective backend's core algebra. CI runs
// a short -fuzztime smoke; longer local runs:
//
//	go test -run='^$' -fuzz=FuzzBijectionIndexInverse -fuzztime=60s ./internal/engine
package engine

import "testing"

// FuzzBijectionIndexInverse: for arbitrary (n, seed, i) the keyed
// bijection must stay inside its domain and invert exactly —
// Inverse(Index(i)) == i and Index(Inverse(i)) == i. These two
// invariants are the whole correctness story of the O(1)-memory
// backend: together they say Index is a permutation of [0, n), which is
// what lets permd serve 2^40-element domains without materializing
// anything. The bijection holds O(1) state, so the fuzzer can roam the
// full int64 range of n for free. The batch evaluator must agree with
// the scalar one too: Chunk over a window of 1 to bijLanes+1 indices
// at i (its width drawn from the seed) equals Index element by element.
func FuzzBijectionIndexInverse(f *testing.F) {
	f.Add(int64(1), uint64(0), int64(0))
	f.Add(int64(2), uint64(42), int64(1))
	f.Add(int64(1000), uint64(7), int64(999))
	f.Add(int64(1)<<40, uint64(99999), int64(123456789))
	f.Add(int64(3)<<61, uint64(1), int64(5)<<59)
	f.Fuzz(func(t *testing.T, n int64, seed uint64, i int64) {
		if n <= 0 {
			return // NewBijection panics on negative n by contract
		}
		// Fold i into the domain so every mutation exercises the maps
		// (two steps: (i%n)+n can overflow int64 when n > MaxInt64/2).
		if i %= n; i < 0 {
			i += n
		}
		b := NewBijection(n, seed)
		y := b.Index(i)
		if y < 0 || y >= n {
			t.Fatalf("Index(%d) = %d outside [0, %d)", i, y, n)
		}
		if back := b.Inverse(y); back != i {
			t.Fatalf("Inverse(Index(%d)) = %d (n=%d seed=%d)", i, back, n, seed)
		}
		x := b.Inverse(i)
		if x < 0 || x >= n {
			t.Fatalf("Inverse(%d) = %d outside [0, %d)", i, x, n)
		}
		if back := b.Index(x); back != i {
			t.Fatalf("Index(Inverse(%d)) = %d (n=%d seed=%d)", i, back, n, seed)
		}
		w := min(1+int64(seed%(bijLanes+1)), n)
		start := min(i, n-w)
		win := make([]int64, w)
		b.Chunk(win, start)
		for k, v := range win {
			if want := b.Index(start + int64(k)); v != want {
				t.Fatalf("Chunk[%d] = %d, Index = %d (n=%d seed=%d width=%d)", start+int64(k), v, want, n, seed, w)
			}
		}
	})
}
