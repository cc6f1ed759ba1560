// Native fuzz targets for the bijective backend's core algebra and the
// blocked decomposition's slot builds. CI runs a short -fuzztime smoke;
// longer local runs:
//
//	go test -run='^$' -fuzz=FuzzBijectionIndexInverse -fuzztime=60s ./internal/engine
//	go test -run='^$' -fuzz='^FuzzCGMSlots$' -fuzztime=60s ./internal/engine
package engine

import (
	"fmt"
	"testing"

	"randperm/internal/core"
)

// FuzzBijectionIndexInverse: for arbitrary (n, seed, i) the keyed
// bijection must stay inside its domain and invert exactly —
// Inverse(Index(i)) == i and Index(Inverse(i)) == i. These two
// invariants are the whole correctness story of the O(1)-memory
// backend: together they say Index is a permutation of [0, n), which is
// what lets permd serve 2^40-element domains without materializing
// anything. The bijection holds O(1) state, so the fuzzer can roam the
// full int64 range of n for free. The batch evaluator must agree with
// the scalar one too, in both kernels: Chunk over a window of 1 to
// 2*bijLanes+1 indices at i (its width drawn from the seed), run by the
// AVX-512 kernel where the host has it and by the generic lane loop,
// equals Index element by element.
func FuzzBijectionIndexInverse(f *testing.F) {
	f.Add(int64(1), uint64(0), int64(0))
	f.Add(int64(2), uint64(42), int64(1))
	f.Add(int64(1000), uint64(7), int64(999))
	f.Add(int64(1)<<40, uint64(99999), int64(123456789))
	f.Add(int64(1)<<40, uint64(100), int64(1)<<39+5) // width 101
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
		w := min(1+int64(seed%(2*bijLanes+1)), n)
		start := min(i, n-w)
		generic := *b
		generic.vec = false
		for _, c := range []*Bijection{b, &generic} {
			win := make([]int64, w)
			c.Chunk(win, start)
			for k, v := range win {
				if want := b.Index(start + int64(k)); v != want {
					t.Fatalf("Chunk[%d] = %d, Index = %d (n=%d seed=%d width=%d vec=%v)", start+int64(k), v, want, n, seed, w, c.vec)
				}
			}
		}
	})
}

// FuzzCGMSlots builds every shard slot of a blocked decomposition the
// way a cluster does, through CGM alone: n <= 4096 items in p <= 16
// blocks over nodes <= p slots, each slot a Window of contiguous target
// blocks. A source block whose bit is set in local is routed straight
// into the slot; any other is routed into its own Exchange page and
// copied into the slot's segments, as the exchange decoder does. Then
// each target block is arranged. The slots, concatenated, must be
// PermuteSliceCGM of the identity, which moves items with the separate
// routeBlock kernel, in both index types.
func FuzzCGMSlots(f *testing.F) {
	// Raw values in range read as themselves: n, p, nodes, seed, local.
	f.Add(uint16(0), uint8(3), uint8(2), uint64(1), uint16(0))
	f.Add(uint16(1), uint8(4), uint8(3), uint64(2), uint16(1))
	f.Add(uint16(5), uint8(8), uint8(4), uint64(3), uint16(0x55))
	f.Add(uint16(1000), uint8(7), uint8(3), uint64(4), uint16(0x2a))
	f.Add(uint16(4096), uint8(16), uint8(5), uint64(5), uint16(0xffff))
	f.Fuzz(func(t *testing.T, n16 uint16, p8, nodes8 uint8, seed uint64, local uint16) {
		n, p := int(n16%4097), 1+int(p8-1)%16
		nodes := 1 + int(nodes8-1)%p
		want, err := PermuteSliceCGM(iota64(n), p, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("n=%d p=%d nodes=%d seed=%d local=%#x", n, p, nodes, seed, local)
		sameAs(t, "int32 "+what, cgmSlots[int32](t, n, p, nodes, seed, local), want)
		sameAs(t, "int64 "+what, cgmSlots[int64](t, n, p, nodes, seed, local), want)
	})
}

// cgmSlots concatenates the nodes slots of FuzzCGMSlots' decomposition.
func cgmSlots[T int32 | int64](t *testing.T, n, p, nodes int, seed uint64, local uint16) []T {
	sizes := core.EvenBlocks(int64(n), p)
	c := NewCGM(seed, sizes, sizes)
	var out []T
	for k := 0; k < nodes; k++ {
		// The first p mod nodes slots hold one block more.
		q, r := p/nodes, p%nodes
		lo, hi := k*q+min(k, r), (k+1)*q+min(k+1, r)
		w, ex := c.Window(lo, hi), c.Exchange(lo, hi)
		slot := make([]T, w.Len(0)+1) // the window and its sink
		for i := 0; i < p; i++ {
			if local>>i&1 == 1 {
				RouteIota(w, i, c.Labels(i), slot)
				continue
			}
			page := make([]T, ex.Len(i)+1)
			RouteIota(ex, i, c.Labels(i), page)
			for j := lo; j < hi; j++ {
				a, b := w.Segment(i, j)
				x, y := ex.Segment(i, j)
				if copy(slot[a:b], page[x:y]) != int(b-a) || b-a != y-x {
					t.Fatalf("segment (%d, %d): slot [%d, %d), page [%d, %d)", i, j, a, b, x, y)
				}
			}
		}
		slot = slot[:w.Len(0)]
		for j := lo; j < hi; j++ {
			Arrange(w, j, slot)
		}
		out = append(out, slot...)
	}
	return out
}
