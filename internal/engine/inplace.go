package engine

import (
	"fmt"
	"math/bits"

	"randperm/internal/core"
	"randperm/internal/xrand"
)

// The in-place backend: a MergeShuffle-style divide-and-conquer parallel
// shuffle after Bacher, Bodini, Hollender and Lumbroso ("MergeShuffle: A
// Very Fast, Parallel Random Permutation Algorithm", arXiv:1508.03167),
// the shared-memory design Penschuck's engineering study
// (arXiv:2302.03317) builds on. The array is split into 2^k contiguous
// blocks, each block is Fisher-Yates shuffled concurrently, and adjacent
// runs are then merged pairwise in k parallel rounds with the MergeShuffle
// merge: one unbiased random bit per placed item decides whether the next
// output slot keeps the head of the left run or swaps in the head of the
// right run, and once either run is exhausted the remainder is folded in
// with forward Fisher-Yates insertions. If both runs are uniformly
// shuffled, the merged run is too (Lemma 1 of the paper), so induction up
// the merge tree makes the whole array uniform.
//
// Unlike the scatter engine this path allocates nothing per item — no
// label arrays, no second buffer; the only allocations are the RNG
// streams and the block-offset table, and the public API's single input
// copy is the entire memory footprint. The trade is extra sequential
// passes: each merge round touches every item once, and the final round
// is one merge spanning the whole array, so single-core throughput is
// bounded by ~(1 + k) cheap sequential passes where the scatter engine
// does ~2 random-access passes. The win is on real cores: leaf shuffles
// and early merge rounds parallelize perfectly and the per-item merge
// work is a coin flip and a swap.
//
// Determinism contract: RNG streams are bound to the nodes of the merge
// tree (leaf i draws from stream i, the m-th merge of each round from its
// own stream), never to pool workers, so the output is deterministic in
// (Seed, block count, len(data)) and independent of Options.Workers.

// ShuffleInPlace shuffles data in place so every permutation is equally
// likely, using the MergeShuffle divide-and-conquer above. `blocks` is
// the decomposition width (the public Procs knob); it is rounded up to a
// power of two. Inputs too small to split (len(data) < 2*blocks) are
// Fisher-Yates shuffled directly with the first stream.
func ShuffleInPlace[T any](data []T, blocks int, opt Options) error {
	if blocks < 1 {
		return fmt.Errorf("engine: block count must be positive, got %d", blocks)
	}
	b := ceilPow2(blocks)
	n := len(data)
	if b == 1 || n < 2*b {
		// Too small to split: plain Fisher-Yates on the base stream
		// (identical to stream 0 of the tree split below).
		shuffleX(xrand.NewXoshiro256(opt.Seed), data)
		return nil
	}
	// Streams 0..b-1 shuffle the leaves; streams b..2b-2 drive the
	// merges, numbered round by round. Binding streams to tree nodes
	// (not workers) keeps the output independent of the worker schedule.
	streams := xrand.NewStreams(opt.Seed, 2*b-1)

	sizes := core.EvenBlocks(int64(n), b)
	off := make([]int, b+1)
	for i, s := range sizes {
		off[i+1] = off[i] + int(s)
	}

	pool := NewPoolCancel(min(opt.workers(), b), opt.Seed, opt.Cancel)
	defer pool.Close()

	// Phase 1: independent leaf Fisher-Yates shuffles, one stream each.
	if err := pool.For(b, func(i int) {
		shuffleX(streams[i], data[off[i]:off[i+1]])
	}); err != nil {
		return err
	}

	// Phase 2: k = log2(b) rounds of pairwise merges up the tree. Round
	// r merges disjoint adjacent runs, so the merges of one round are
	// data-race-free; the barrier between rounds is the For return.
	node := b
	for width := 1; width < b; width *= 2 {
		pairs := b / (2 * width)
		base := node
		if err := pool.For(pairs, func(m int) {
			lo := off[2*width*m]
			mid := off[2*width*m+width]
			hi := off[2*width*(m+1)]
			mergeShuffle(streams[base+m], data[lo:hi], mid-lo)
		}); err != nil {
			return err
		}
		node += pairs
	}
	return nil
}

// PermuteSliceInPlace returns a uniformly shuffled copy of data computed
// by ShuffleInPlace on the copy — the copying form the public API needs.
// The input is not modified.
func PermuteSliceInPlace[T any](data []T, blocks int, opt Options) ([]T, error) {
	out := make([]T, len(data))
	copy(out, data)
	if err := ShuffleInPlace(out, blocks, opt); err != nil {
		return nil, err
	}
	return out, nil
}

// PermuteBlocksInPlace is the block-distributed form: the input blocks
// are concatenated into one freshly allocated slice laid out in the
// target-block order, shuffled in place with a decomposition width of
// len(in) blocks, and the result split by outSizes (a uniform shuffle of
// the whole followed by any fixed split is uniform over redistributions).
// The returned blocks alias the one backing slice; the input is not
// modified.
func PermuteBlocksInPlace[T any](in [][]T, outSizes []int64, opt Options) ([][]T, error) {
	if _, err := blockTotals(in, outSizes); err != nil {
		return nil, err
	}
	flat := core.Flatten(in)
	if err := ShuffleInPlace(flat, len(in), opt); err != nil {
		return nil, err
	}
	return splitBlocks(flat, outSizes), nil
}

// mergeShuffle merges two adjacent uniformly shuffled runs a[:mid] and
// a[mid:] into one uniformly shuffled run, in place, using one unbiased
// bit per placed item (MergeShuffle's merge). Position i is the next
// output slot, j the head of the right run; the left run's head is
// already at i. A 0-bit keeps the left head, a 1-bit swaps in the right
// head (displacing the left head to the back of the left run — a fixed
// rearrangement, which a uniformly shuffled run is invariant under).
// When either run is exhausted the survivors sit contiguously at a[i:]
// and are folded in by forward Fisher-Yates insertion, which extends a
// uniform prefix one element at a time.
func mergeShuffle[T any](rng *xrand.Xoshiro256, a []T, mid int) {
	i, j := 0, mid
	// Fast path: while both runs have >= 64 items left, a whole word of
	// bits can be consumed with no exhaustion checks (each bit retires
	// at most one item from each run). The step itself is branchless —
	// the output slot swaps with position i + bit*(j-i), which is the
	// right head when the bit is set and a self-swap otherwise — so the
	// per-item cost is a few ALU ops instead of a coin-flip branch the
	// predictor can never learn.
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
				break // left run exhausted
			}
		} else {
			if j == len(a) {
				break // right run exhausted
			}
			a[i], a[j] = a[j], a[i]
			j++
		}
		i++
	}
	// The survivors sit contiguously at a[i:], a uniform prefix a[:i]
	// before them.
	foldIn(rng, a, i)
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
