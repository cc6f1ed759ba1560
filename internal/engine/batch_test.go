package engine

import (
	"math"
	"math/bits"
	"sync"
	"testing"

	"randperm/internal/stats"
	"randperm/internal/xrand"
)

// batch_test.go pins the batched hot loops to their pre-batch serial
// references. The batch rewrite (block RNG via Fill, reductions in a
// tight second loop) is only admissible because it consumes the raw
// stream in exactly the order the serial loops did — one word per
// placement plus rejection re-draws — so every (seed, len) must produce
// byte-identical output AND leave the generator at the same stream
// position. The references below are verbatim copies of the serial
// loops this PR replaced.

// shuffleSerialRef is the pre-batch shuffleX: open-coded Lemire, one
// draw per placement, no power-of-two special case.
func shuffleSerialRef[T any](rng *xrand.Xoshiro256, x []T) {
	for i := len(x) - 1; i > 0; i-- {
		bound := uint64(i + 1)
		hi, lo := bits.Mul64(rng.Uint64(), bound)
		if lo < bound {
			thresh := -bound % bound
			for lo < thresh {
				hi, lo = bits.Mul64(rng.Uint64(), bound)
			}
		}
		x[i], x[int(hi)] = x[int(hi)], x[i]
	}
}

// insideOutSerialRef is the pre-batch insideOut: rng.Intn per item,
// including Intn's power-of-two mask special case.
func insideOutSerialRef[T any](rng *xrand.Xoshiro256, src, dst []T) {
	if len(src) == 0 {
		return
	}
	dst[0] = src[0]
	for i := 1; i < len(src); i++ {
		j := rng.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = src[i]
	}
}

// insideOut is flatShuffle's small-input path on a slice: the items
// copied in order, then foldIn from position 1. It writes the same bytes
// as the inside-out Fisher-Yates of insideOutSerialRef from the same
// draws.
func insideOut[T any](rng *xrand.Xoshiro256, src, dst []T) {
	foldIn(rng, dst[:copy(dst, src)], 1)
}

// mergeShuffleSerialRef is the pre-batch mergeShuffle: identical merge
// phases, rng.Intn insertion tail.
func mergeShuffleSerialRef[T any](rng *xrand.Xoshiro256, a []T, mid int) {
	i, j := 0, mid
	for j-i >= 64 && len(a)-j >= 64 {
		w := rng.Uint64()
		for t := 0; t < 64; t++ {
			b := int(w & 1)
			w >>= 1
			k := i + b*(j-i)
			a[i], a[k] = a[k], a[i]
			j += b
			i++
		}
	}
	var w uint64
	nbits := 0
	for {
		if nbits == 0 {
			w = rng.Uint64()
			nbits = 64
		}
		bit := w & 1
		w >>= 1
		nbits--
		if bit == 0 {
			if i == j {
				break
			}
		} else {
			if j == len(a) {
				break
			}
			a[i], a[j] = a[j], a[i]
			j++
		}
		i++
	}
	for ; i < len(a); i++ {
		k := rng.Intn(i + 1)
		a[i], a[k] = a[k], a[i]
	}
}

// batchSizes crosses every regime of the fyBatch=512 blocking: empty,
// trivial, power-of-two bounds, one block, block boundaries, refills.
var batchSizes = []int{0, 1, 2, 3, 5, 17, 64, 65, 255, 256, 257, 511, 512, 513, 1000, 1025, 5000}

func TestShuffleXMatchesSerialReference(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0x9E3779B97F4A7C15} {
		for _, n := range batchSizes {
			got, want := iota64(n), iota64(n)
			ra, rb := xrand.NewXoshiro256(seed), xrand.NewXoshiro256(seed)
			shuffleX(ra, got)
			shuffleSerialRef(rb, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed=%d n=%d: diverged at %d: %d != %d", seed, n, i, got[i], want[i])
				}
			}
			if a, b := ra.Uint64(), rb.Uint64(); a != b {
				t.Fatalf("seed=%d n=%d: stream positions differ after shuffle", seed, n)
			}
		}
	}
}

func TestInsideOutMatchesSerialReference(t *testing.T) {
	for _, seed := range []uint64{0, 7, 1 << 40} {
		for _, n := range batchSizes {
			src := iota64(n)
			got, want := make([]int64, n), make([]int64, n)
			ra, rb := xrand.NewXoshiro256(seed), xrand.NewXoshiro256(seed)
			insideOut(ra, src, got)
			insideOutSerialRef(rb, src, want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed=%d n=%d: diverged at %d: %d != %d", seed, n, i, got[i], want[i])
				}
			}
			if a, b := ra.Uint64(), rb.Uint64(); a != b {
				t.Fatalf("seed=%d n=%d: stream positions differ after insideOut", seed, n)
			}
		}
	}
}

func TestMergeShuffleMatchesSerialReference(t *testing.T) {
	cases := []struct{ n, mid int }{
		{2, 1}, {10, 3}, {100, 50}, {128, 64}, {600, 1}, {600, 599},
		{1000, 300}, {1025, 512}, {1200, 600}, {4096, 2048},
	}
	for _, seed := range []uint64{0, 42} {
		for _, c := range cases {
			got, want := iota64(c.n), iota64(c.n)
			ra, rb := xrand.NewXoshiro256(seed), xrand.NewXoshiro256(seed)
			mergeShuffle(ra, got, c.mid)
			mergeShuffleSerialRef(rb, want, c.mid)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed=%d n=%d mid=%d: diverged at %d: %d != %d",
						seed, c.n, c.mid, i, got[i], want[i])
				}
			}
			if a, b := ra.Uint64(), rb.Uint64(); a != b {
				t.Fatalf("seed=%d n=%d mid=%d: stream positions differ", seed, c.n, c.mid)
			}
		}
	}
}

// TestBijectionChunkMatchesIndex pins the lane-interleaved batch
// evaluator (and its batched cycle-walk) to the scalar Index, across
// full-superdomain fast-path sizes (n = 2^even), heavy-walk sizes just
// above a power of two, and shallow/deep networks; also at every chunk
// granularity that splits the lane groups unevenly. Domains too large
// to sweep are checked on windows at the start, middle and end, at the
// half widths on either side of the premixed-key cutoff (20 and 30
// bits run premixed keys, 31 and 32 the raw round function), each with
// a cycle-walk and, below 32, also as a full superdomain.
func TestBijectionChunkMatchesIndex(t *testing.T) {
	wide := []int64{
		3<<38 + 5, 1 << 40, // half 20
		1<<59 + 7, 1 << 60, // half 30
		1<<60 + 1, 1 << 62, // half 31
		1<<62 + 3, math.MaxInt64, // half 32
	}
	for _, rounds := range []int{1, 3, 12} {
		for _, n := range wide {
			b := NewBijectionRounds(n, 0xFEED, rounds)
			const w = 3*bijLanes + 5
			for _, start := range []int64{0, n/2 - w/2, n - w} {
				want := make([]int64, w)
				for i := range want {
					want[i] = b.Index(start + int64(i))
				}
				for _, step := range []int{1, 7, bijLanes, bijLanes + 1, w} {
					got := make([]int64, w)
					for k := 0; k < w; k += step {
						m := min(step, w-k)
						b.Chunk(got[k:k+m], start+int64(k))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("rounds=%d n=%d step=%d: Chunk[%d] = %d, Index = %d",
								rounds, n, step, start+int64(i), got[i], want[i])
						}
					}
				}
			}
		}
	}

	ns := []int64{1, 2, 3, 5, 15, 16, 17, 255, 256, 257, 1000, 1024, 1025, 4096, 5000}
	for _, rounds := range []int{1, 3, 12} {
		for _, n := range ns {
			b := NewBijectionRounds(n, 0xFEED, rounds)
			want := make([]int64, n)
			for i := range want {
				want[i] = b.Index(int64(i))
			}
			for _, step := range []int{1, 7, bijLanes, bijLanes + 1, int(n)} {
				if step == 0 {
					continue
				}
				got := make([]int64, n)
				for start := int64(0); start < n; start += int64(step) {
					m := min(int64(step), n-start)
					b.Chunk(got[start:start+m], start)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("rounds=%d n=%d step=%d: Chunk[%d] = %d, Index = %d",
							rounds, n, step, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNewBijectionOptRounds pins the Options.Rounds plumbing: <= 0 means
// the default family, > 0 selects the (Seed, Rounds)-versioned family
// NewBijectionRounds defines.
func TestNewBijectionOptRounds(t *testing.T) {
	const n, seed = 500, 11
	def := NewBijection(n, seed)
	for _, r := range []int{-1, 0} {
		b := newBijectionOpt(n, Options{Seed: seed, Rounds: r})
		for i := int64(0); i < n; i++ {
			if b.Index(i) != def.Index(i) {
				t.Fatalf("Rounds=%d: differs from default family at %d", r, i)
			}
		}
	}
	four := NewBijectionRounds(n, seed, 4)
	b := newBijectionOpt(n, Options{Seed: seed, Rounds: 4})
	same := true
	for i := int64(0); i < n; i++ {
		if b.Index(i) != four.Index(i) {
			t.Fatalf("Rounds=4: differs from NewBijectionRounds at %d", i)
		}
		if b.Index(i) != def.Index(i) {
			same = false
		}
	}
	if same {
		t.Fatal("Rounds=4 produced the 12-round permutation: family not versioned by Rounds")
	}
}

// TestScatterPositionalUniform chi-squares a positional marginal through
// the batched radix-bucket scatter at a size that exceeds fyBatch, so
// label generation, the bucket scatter, and the block-refill paths of the
// batched Fisher-Yates all run: over random seeds, item 0 must land in
// every output position equally often.
func TestScatterPositionalUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	const n = 700 // > fyBatch, so the batched loops cross a block boundary
	const trials = 6000
	counts := make([]int64, n)
	for tr := 0; tr < trials; tr++ {
		out, err := permuteFlat(iota64(n), 2, Options{
			Workers: 2,
			Seed:    uint64(tr)*0x9E3779B97F4A7C15 + 5,
		}, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		for pos, v := range out {
			if v == 0 {
				counts[pos]++
				break
			}
		}
	}
	res, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.0005) {
		t.Errorf("batched scatter positional marginal non-uniform: %s", res)
	}
}

// TestBatchBuffersRace drives every batched path concurrently so `go
// test -race` can see any sharing of the block buffers across pool
// workers — they are stack-local per task by construction, and this
// test is the witness.
func TestBatchBuffersRace(t *testing.T) {
	data := iota64(20000)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			if _, err := PermuteSlice(data, 8, Options{Workers: 4, Seed: seed}); err != nil {
				t.Error(err)
			}
			cp := append([]int64(nil), data...)
			if err := ShuffleInPlace(cp, 8, Options{Workers: 4, Seed: seed}); err != nil {
				t.Error(err)
			}
			if _, err := PermuteSliceBijective(data, 8, Options{Workers: 4, Seed: seed}); err != nil {
				t.Error(err)
			}
		}(uint64(g))
	}
	// Concurrent Chunk on one shared (immutable) Bijection.
	b := NewBijection(int64(len(data)), 99)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(off int64) {
			defer wg.Done()
			var dst [1000]int64
			b.Chunk(dst[:], off*1000)
		}(int64(g))
	}
	wg.Wait()
}
