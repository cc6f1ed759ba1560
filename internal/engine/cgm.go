package engine

import (
	"fmt"

	"randperm/internal/core"
	"randperm/internal/xrand"
)

// This file is the coarse-grained-multicomputer (CGM) form of the
// scatter engine: the exact fixed-margin decomposition of PermuteBlocks
// applied to a flat slice through an even block layout. It exists so
// that one permutation law can be computed in two places and agree byte
// for byte:
//
//   - in process, by PermuteSliceCGM below (the BackendCluster path of
//     the public API), and
//   - across machines, by internal/cluster, where each node replays
//     only its own rows and columns of the same decomposition and the
//     item movement becomes a real h-relation over HTTP.
//
// The distributable pieces — the label arrangement of one source block
// and the in-place arrangement of one target block — are exported here
// (ArrangeRow, LocalShuffle) rather than reimplemented in the cluster
// package, so the byte-identity contract between the single-node and
// multi-node runs is enforced by construction: both sides call the same
// functions on the same jump-separated streams.

// CGMStreams returns the RNG streams of the blocked decomposition for a
// p-source, p-target run: stream 0 samples the communication matrix,
// stream 1+i arranges source block i, stream 1+p+j arranges target
// block j. It is the exact stream layout permute uses, published so a
// cluster node can derive any block's stream locally — NewStreams makes
// stream i independent of how many streams are requested, which is what
// lets a node that owns two blocks of a 16-block decomposition draw the
// same values as the single process that owns all 16.
func CGMStreams(seed uint64, p int) []*xrand.Xoshiro256 {
	return xrand.NewStreams(seed, 1+2*p)
}

// ArrangeRow draws the label arrangement for one source block from rng:
// a uniformly random arrangement of the multiset {j repeated row[j]
// times}, consuming exactly the draws routeBlock consumes for the same
// row. labels[t] is the target block of the source block's t-th item.
func ArrangeRow(rng *xrand.Xoshiro256, row []int64) []int32 {
	var total int64
	for _, c := range row {
		total += c
	}
	labels := make([]int32, total)
	t := 0
	for j, c := range row {
		for x := int64(0); x < c; x++ {
			labels[t] = int32(j)
			t++
		}
	}
	shuffleX(rng, labels)
	return labels
}

// LocalShuffle arranges x uniformly in place with the engine's
// Fisher-Yates (the arrangement pass every scatter backend runs on its
// target blocks). Exported so the cluster backend's round 3 — each node
// arranging its own target blocks — replays the single-node arrangement
// byte for byte from the same stream.
func LocalShuffle[T any](rng *xrand.Xoshiro256, x []T) { shuffleX(rng, x) }

// PermuteSliceCGM permutes data through the blocked CGM decomposition:
// the slice is split into p even contiguous source blocks, the exact
// p x p fixed-margin communication matrix is sampled once (Algorithm 3),
// every source block's items are routed by a label arrangement drawn
// from the block's own stream, and every target block is arranged in
// place from its own stream. The result is exactly uniform over all n!
// permutations and deterministic in (Seed, p, len(data)), independent
// of Options.Workers.
//
// This is the permutation BackendCluster serves: a multi-node cluster
// run over the same (seed, n, p) produces these bytes exactly (see
// internal/cluster), because both sides execute the same three rounds
// from the same streams — only the locality of the item movement
// differs. The input is not modified.
func PermuteSliceCGM[T any](data []T, p int, opt Options) ([]T, error) {
	if p < 1 {
		return nil, fmt.Errorf("engine: CGM decomposition needs p >= 1, got %d", p)
	}
	sizes := core.EvenBlocks(int64(len(data)), p)
	return permute(splitBlocks(data, sizes), sizes, opt)
}

// permuteCGMIota is PermuteSliceCGM over the identity of [0, n) without
// the identity: source block i is the index range starting at off[i],
// routed by routeIota. Its output equals PermuteSliceCGM(identity) byte
// for byte.
func permuteCGMIota[T int32 | int64](n, p int, opt Options) ([]T, error) {
	if p < 1 {
		return nil, fmt.Errorf("engine: CGM decomposition needs p >= 1, got %d", p)
	}
	sizes := core.EvenBlocks(int64(n), p)
	off := make([]int64, p)
	for i := 1; i < p; i++ {
		off[i] = off[i-1] + sizes[i-1]
	}
	return scatterBlocks(int64(n), sizes, sizes, opt, func(i int, rng *xrand.Xoshiro256, row, starts []int64, flat []T) {
		routeIota(rng, off[i], row, starts, flat)
	})
}
