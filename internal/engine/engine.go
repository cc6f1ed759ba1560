// Package engine holds the execution backends of the parallel API
// other than the simulated machine. The four phases of the paper's
// Algorithm 1 (local shuffle, communication-matrix sample, data
// exchange, local shuffle) run on one of five backends, which Backend
// names for flags and dispatch.
//
//   - Sim is the simulated PRO machine of internal/pro: one goroutine
//     per processor, message passing through mailboxes, and full
//     superstep/byte/draw accounting, so the paper's Theta-bounds stay
//     observable. Algorithm 1 on it is core.Permute, written directly
//     against *pro.Proc; it is the one backend not implemented here.
//
//   - SharedMem, implemented in this package, executes the same four
//     phases with no mailboxes at all: per-block jump-separated RNG
//     streams, a communication matrix sampled once, its prefix sums
//     turned into disjoint write offsets, and workers scattering items
//     straight into the shared output slice followed by parallel local
//     shuffles. The offset ranges partition the output, so the scatter
//     is data-race-free by construction. When the output layout is
//     prescribed (PermuteBlocks) the matrix comes from the exact
//     fixed-margin distribution of Algorithm 3; when it is free
//     (PermuteSlice) the margins are free too, the matrix degenerates to
//     i.i.d. bucket labels, and the engine picks cache-sized buckets
//     (flatscatter.go).
//
//   - InPlace, also in this package (inplace.go), abandons the scatter
//     decomposition for MergeShuffle's: split into 2^k blocks,
//     Fisher-Yates each block concurrently, then merge adjacent runs
//     pairwise in k parallel rounds with one random bit per placed item.
//     It allocates nothing per item — no labels, no second buffer — so
//     it is the backend for memory-bound workloads and the template for
//     future NUMA/distributed backends.
//
//   - Bijective (bijective.go) does not move data at all: a keyed
//     variable-round Feistel network with cycle-walking defines the
//     permutation as a function, evaluated independently per index in
//     O(1) state. It is the backend behind the streaming Permuter API —
//     any chunk of the permutation costs only the indexes asked for —
//     and the one backend that is NOT exactly uniform over S_n: it is a
//     keyed family with uniform marginals (see bijective.go for the
//     precise statement).
//
//   - Cluster (cgm.go) is the blocked CGM decomposition: the exact
//     fixed-margin scatter over an even block layout, the one
//     permutation law that internal/cluster also computes across
//     machines byte for byte.
//
// All shared-memory phases dispatch onto one Pool (pool.go) of
// long-lived worker goroutines per engine call; randomness stays bound
// to blocks, merge-tree nodes and index ranges, never to workers, so
// every backend's output is deterministic in the seed and independent
// of the worker count (the determinism contract in ARCHITECTURE.md).
//
// Sim, SharedMem, InPlace and Cluster produce exactly uniform
// permutations; Bijective trades exactness over S_n for O(1)-state
// random access.
package engine

import "fmt"

// Backend names an execution backend for flags and dispatch.
type Backend int

const (
	// Sim is the simulated PRO machine with full cost accounting.
	Sim Backend = iota
	// SharedMem is the zero-mailbox shared-memory scatter engine.
	SharedMem
	// InPlace is the MergeShuffle-style divide-and-conquer in-place
	// engine (inplace.go): no label arrays, no second buffer.
	InPlace
	// Bijective is the keyed-Feistel computed-permutation engine
	// (bijective.go): O(1) state per index, streamable, not exactly
	// uniform over S_n.
	Bijective
	// Cluster is the blocked CGM decomposition (cgm.go): the exact
	// fixed-margin scatter over an even block layout, the one
	// permutation law that internal/cluster can also compute across
	// machines byte for byte.
	Cluster
)

// String names the backend for tables and flags.
func (b Backend) String() string {
	switch b {
	case Sim:
		return "sim"
	case SharedMem:
		return "shmem"
	case InPlace:
		return "inplace"
	case Bijective:
		return "bijective"
	case Cluster:
		return "cluster"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend converts a flag value into a Backend.
func ParseBackend(s string) (Backend, bool) {
	switch s {
	case "sim":
		return Sim, true
	case "shmem", "sharedmem", "shared-mem":
		return SharedMem, true
	case "inplace", "in-place", "mergeshuffle":
		return InPlace, true
	case "bijective", "feistel":
		return Bijective, true
	case "cluster", "cgm":
		return Cluster, true
	}
	return 0, false
}

// PermuteIota returns the permutation of [0, n) that backend b computes
// with decomposition width p — exactly the bytes of PermuteSlice,
// PermuteSliceInPlace or PermuteSliceCGM over the identity with the
// same options — built from the indexes themselves: the scatter
// backends write each item's index where the slice forms read the item,
// so no identity is allocated or copied, and T = int32 stores a
// position in 4 bytes whenever n fits. Sim and Bijective have no index
// build.
func PermuteIota[T int32 | int64](b Backend, n, p int, opt Options) ([]T, error) {
	switch b {
	case SharedMem:
		if p <= 0 {
			p = defaultChunks
		}
		return permuteFlatIota[T](n, p, opt, fyCutoff, maxBuckets)
	case InPlace:
		out := Iota[T](n)
		if err := ShuffleInPlace(out, p, opt); err != nil {
			return nil, err
		}
		return out, nil
	case Cluster:
		return permuteCGMIota[T](n, p, opt)
	}
	return nil, fmt.Errorf("engine: no index build on backend %v", b)
}

// Iota returns the identity 0, 1, ..., n-1.
func Iota[T int32 | int64](n int) []T {
	out := make([]T, n)
	fillIota(out)
	return out
}

// Positions is the one store of built permutation values — a
// materialized permutation, a cluster shard or an exchange page:
// PosSlice[int32] when Narrow(n), PosSlice[int64] otherwise.
type Positions interface {
	Read(dst []int64, start int64) // widen the values at start, start+1, ... into all of dst
}

// PosSlice stores positions as T: the store at either width.
type PosSlice[T int32 | int64] []T

func (s PosSlice[T]) Read(dst []int64, start int64) {
	for i, v := range s[start : start+int64(len(dst))] {
		dst[i] = int64(v)
	}
}

// Narrow reports whether every value of a permutation of [0, n) fits 4 bytes.
func Narrow(n int64) bool { return n <= 1<<31-1 }

// ByWidth returns narrow, the int32 form of a build, when Narrow(n),
// and wide, its int64 form, otherwise.
func ByWidth[F any](n int64, narrow, wide F) F {
	if Narrow(n) {
		return narrow
	}
	return wide
}
