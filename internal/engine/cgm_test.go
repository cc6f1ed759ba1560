package engine

import (
	"testing"

	"randperm/internal/core"
	"randperm/internal/stats"
	"randperm/internal/xrand"
)

// TestPermuteSliceCGMIsPermutation: validity, input preservation, and
// determinism in (Seed, p) across worker counts and odd block layouts.
func TestPermuteSliceCGMIsPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 1001} {
		for _, p := range []int{1, 3, 8} {
			var ref []int64
			for _, workers := range []int{1, 4} {
				data := make([]int64, n)
				for i := range data {
					data[i] = int64(i)
				}
				out, err := PermuteSliceCGM(data, p, Options{Workers: workers, Seed: 99})
				if err != nil {
					t.Fatal(err)
				}
				seen := make([]bool, n)
				for _, v := range out {
					if v < 0 || v >= int64(n) || seen[v] {
						t.Fatalf("n=%d p=%d: not a permutation", n, p)
					}
					seen[v] = true
				}
				for i, v := range data {
					if v != int64(i) {
						t.Fatalf("n=%d p=%d: input modified", n, p)
					}
				}
				if ref == nil {
					ref = out
					continue
				}
				for i := range ref {
					if out[i] != ref[i] {
						t.Fatalf("n=%d p=%d: workers=%d diverged at %d", n, p, workers, i)
					}
				}
			}
		}
	}
	if _, err := PermuteSliceCGM([]int64{1}, 0, Options{}); err == nil {
		t.Fatal("p=0 accepted")
	}
}

// TestPermuteSliceCGMMatchesBlockedPermute: the flat CGM form must be
// exactly the PermuteBlocks decomposition over even blocks — the
// byte-identity anchor the cluster backend builds on.
func TestPermuteSliceCGMMatchesBlockedPermute(t *testing.T) {
	const n, p = 777, 5
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	got, err := PermuteSliceCGM(data, p, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sizes := core.EvenBlocks(n, p)
	blocks := make([][]int64, p)
	var off int64
	for i, s := range sizes {
		blocks[i] = data[off : off+s]
		off += s
	}
	outBlocks, err := PermuteBlocks(blocks, sizes, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, b := range outBlocks {
		want = append(want, b...)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diverged at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

// TestArrangeRowMatchesRoute: arrangeRow must consume the stream exactly
// as routeBlock does, and the segments it induces must reproduce
// routeBlock's writes (source order within a target, targets laid out by
// scatterStarts).
func TestArrangeRowMatchesRoute(t *testing.T) {
	row := []int64{3, 0, 4, 2}
	src := []int64{10, 11, 12, 13, 14, 15, 16, 17, 18}
	a := xrand.NewStreams(42, 1)[0]
	b := xrand.NewStreams(42, 1)[0]

	flat := make([]int64, len(src))
	starts := []int64{0, 3, 3, 7}
	routeBlock(a, src, row, starts, flat)

	labels := arrangeRow(b, row, nil)
	if len(labels) != len(src) {
		t.Fatalf("labels length %d, want %d", len(labels), len(src))
	}
	fill := append([]int64(nil), starts...)
	want := make([]int64, len(src))
	for i, v := range src {
		j := labels[i]
		want[fill[j]] = v
		fill[j]++
	}
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
	// Both paths must leave their streams in the same state: the next
	// draw after either is the same value.
	if a.Uint64() != b.Uint64() {
		t.Fatal("stream consumption diverged between routeBlock and arrangeRow")
	}
}

// TestPermuteSliceCGMUniform: the blocked CGM law is exactly uniform
// (it is Algorithm 1 with the exact matrix), chi-squared over S_4.
func TestPermuteSliceCGMUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	const n = 4
	const trials = 24000
	counts := make([]int64, stats.Factorial(n))
	for tr := 0; tr < trials; tr++ {
		data := []int64{0, 1, 2, 3}
		out, err := PermuteSliceCGM(data, 2, Options{Seed: uint64(tr)*0x9E3779B97F4A7C15 + 11})
		if err != nil {
			t.Fatal(err)
		}
		counts[stats.RankPermInt64(out)]++
	}
	res, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.0005) {
		t.Errorf("non-uniform: %s", res)
	}
}
