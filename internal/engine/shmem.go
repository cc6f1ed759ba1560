package engine

import (
	"math/bits"
	"runtime"

	"randperm/internal/commat"
	"randperm/internal/xrand"
)

// Options configures the shared-memory backend.
type Options struct {
	// Workers caps the OS-level concurrency; <= 0 means GOMAXPROCS.
	// The permutation distribution and the exact output are independent
	// of Workers: randomness is bound to blocks, not to workers.
	Workers int
	// Seed drives all randomness; every block derives its own
	// jump-separated stream from it, so results are reproducible.
	Seed uint64
	// Rounds overrides the Feistel depth of the bijective paths
	// (<= 0 means the default, bijectiveRounds). Every other backend
	// ignores it. Changing Rounds selects a different keyed family:
	// outputs are versioned by (Seed, Rounds), see bijective.go.
	Rounds int
	// Cancel, when non-nil, aborts the run early once closed: worker
	// pools stop claiming tasks and the engine call returns ErrCanceled
	// (mapped to the caller's context error by the randperm layer). It
	// cannot affect any byte of a run that completes — cancellation is
	// checked only between tasks, and a canceled run returns no output
	// at all. A nil channel (the zero value) disables cancellation.
	Cancel <-chan struct{}
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PermuteBlocks permutes block-distributed items into target blocks of
// the given sizes so that every global permutation is equally likely -
// the same decomposition as the paper's Algorithm 1, executed directly
// on shared memory:
//
//  1. the communication matrix is sampled once from its exact
//     distribution (Algorithm 3, O(p*p') work - negligible against n
//     under the paper's coarseness assumption p <= sqrt(n)), and its
//     column-wise prefix sums become write offsets that partition the
//     output slice into one disjoint range per (source, target) pair;
//  2. workers scatter the items of each source block straight into
//     those ranges (routeBlock, one pass, data-race-free by
//     construction since the ranges never overlap);
//  3. every target block of the output is shuffled in place with its
//     own RNG stream, in parallel.
//
// The input blocks are not modified. The returned blocks alias one
// freshly allocated backing slice. The result is deterministic in
// (Seed, block layout) and independent of Options.Workers.
func PermuteBlocks[T any](in [][]T, outSizes []int64, opt Options) ([][]T, error) {
	flat, err := permute(in, outSizes, opt)
	if err != nil {
		return nil, err
	}
	return splitBlocks(flat, outSizes), nil
}

// defaultChunks is the label-chunk count PermuteSlice falls back to: a
// fixed value (not GOMAXPROCS) so the fallback stays deterministic
// across machines and worker settings, with enough chunks to feed any
// reasonable core count.
const defaultChunks = 16

// PermuteSlice is the flat form: with no prescribed output layout the
// exact fixed-margin matrix of PermuteBlocks degenerates to free
// multinomial margins, so the engine runs the k-way scatter shuffle of
// flatscatter.go with cache-sized buckets instead. `chunks` (<= 0 means
// defaultChunks) sets the label-generation decomposition, the analog of
// the source-block count: the result is deterministic in (Seed, chunks,
// len(data)) and independent of Options.Workers. The input is not
// modified; a freshly allocated slice is returned.
func PermuteSlice[T any](data []T, chunks int, opt Options) ([]T, error) {
	if chunks <= 0 {
		chunks = defaultChunks
	}
	return permuteFlat(data, chunks, opt, fyCutoff, maxBuckets)
}

// permute is the shared implementation: it returns the flat backing
// slice, laid out in target-block order.
func permute[T any](in [][]T, outSizes []int64, opt Options) ([]T, error) {
	if _, err := blockTotals(in, outSizes); err != nil {
		return nil, err
	}
	rowM := make([]int64, len(in))
	for i, b := range in {
		rowM[i] = int64(len(b))
	}
	c := NewCGM(opt.Seed, rowM, outSizes)
	return scatterBlocks(c, opt, func(w *Window, i int, flat []T) {
		routeBlock(c.streams[1+i].Clone(), in[i], c.a.Row(i), w.at[i], flat)
	})
}

// scatterBlocks runs rounds 2 and 3 of c in one process, into one
// shared slice laid out by w, the window of every target block: route
// moves source block i's items into flat (routeBlock or RouteIota); it
// runs once per source block, so only its own loop touches items. Then
// every target block is arranged in place.
func scatterBlocks[T any](c *CGM, opt Options, route func(w *Window, i int, flat []T)) ([]T, error) {
	p, pp := c.a.Rows(), c.a.Cols()
	// No phase is wider than max(p, pp) tasks, so a larger pool would
	// only spawn idle workers (and their streams).
	pool := NewPoolCancel(min(opt.workers(), max(p, pp)), opt.Seed, opt.Cancel)
	defer pool.Close()

	// Round 2: scatter every source block straight into the output
	// (the paper's phases 1 and 3 fused into a single pass, see
	// routeBlock). The window spans every target block, so its
	// segments partition flat and the writes never overlap.
	w := c.Window(0, pp)
	flat := make([]T, w.Len(0))
	if err := pool.For(p, func(i int) { route(w, i, flat) }); err != nil {
		return nil, err
	}

	// Round 3: uniform local permutation of each target block.
	if err := pool.For(pp, func(j int) { Arrange(w, j, flat) }); err != nil {
		return nil, err
	}
	return flat, nil
}

// routeBlock scatters the items of one source block into its disjoint
// target ranges of the shared output. A uniformly random arrangement of
// the label multiset {j repeated row[j] times} decides which target each
// consecutive item goes to: conditioned on the matrix row, every way of
// choosing which items land in which target is then equally likely - the
// same law as Algorithm 1's "shuffle the block uniformly, then send
// consecutive segments", but with a cheap Fisher-Yates on the compact
// label array instead of moving the items twice. The item order within a
// target range preserves source order; the subsequent shuffle of the
// whole target block makes that irrelevant.
func routeBlock[T any](rng *xrand.Xoshiro256, src []T, row, starts []int64, flat []T) {
	if len(src) == 0 {
		return
	}
	labels := arrangeRow(rng, row, nil)
	fill := append([]int64(nil), starts...)
	for i, v := range src {
		j := labels[i]
		flat[fill[j]] = v
		fill[j]++
	}
}

// fyBatch is the word-block size of the batched Fisher-Yates loops: 4
// KiB of raw draws, enough to amortize the Fill call and keep the
// reduction loop free of generator work, small enough to stay in L1
// alongside the segment being shuffled.
const fyBatch = 512

// shuffleX is xrand.Shuffle on the concrete generator, restructured
// around batch RNG generation: a block of raw xoshiro words is
// prefetched into a stack buffer with rng.Fill, then the Lemire bounded
// reductions (see xrand.Uint64n) and swaps run in a tight second loop
// with no generator state in the dependency chain. The words are
// consumed strictly in stream order — one per placement, plus any
// rejection re-draws taking the next buffered word, exactly as the
// serial loop would draw them — so the output is byte-identical to the
// one-draw-at-a-time reference for every (seed, len) (pinned by
// TestShuffleXMatchesSerialReference).
func shuffleX[T any](rng *xrand.Xoshiro256, x []T) {
	var buf [fyBatch]uint64
	i := len(x) - 1
	for i > 0 {
		// Each placement consumes at least one word, so a block of
		// min(fyBatch, i) words never overdraws the stream.
		have := min(fyBatch, i)
		rng.Fill(buf[:have])
		used := 0
		for used < have {
			bound := uint64(i + 1)
			hi, lo := bits.Mul64(buf[used], bound)
			used++
			if lo < bound {
				thresh := -bound % bound
				for lo < thresh {
					if used == have {
						// Buffer dry mid-rejection (astronomically rare
						// for any realistic bound): pull the next stream
						// word, keeping the draw order intact.
						rng.Fill(buf[:1])
						used, have = 0, 1
					}
					hi, lo = bits.Mul64(buf[used], bound)
					used++
				}
			}
			x[i], x[int(hi)] = x[int(hi)], x[i]
			i--
		}
	}
}

// scatterStarts converts the communication matrix into absolute write
// offsets: starts[i][j] is where source i's items for target j begin in
// the flat output. Within target j's range (beginning at colOff[j]) the
// sources are laid out in rank order, so the per-(i,j) ranges partition
// the output slice.
func scatterStarts(a *commat.Matrix, colOff []int64) [][]int64 {
	fill := append([]int64(nil), colOff...)
	starts := make([][]int64, a.Rows())
	for i := range starts {
		row := a.Row(i)
		st := make([]int64, len(row))
		for j, v := range row {
			st[j] = fill[j]
			fill[j] += v
		}
		starts[i] = st
	}
	return starts
}
