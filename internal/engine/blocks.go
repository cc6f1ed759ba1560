package engine

import "fmt"

// Shared scaffolding for the backends that realize the block-distributed
// form (Problem 1's prescribed layout) by reduction to a flat
// permutation: validate the redistribution shape once, and split one
// backing slice into the target blocks once, so every such backend
// agrees on edge cases by construction.

// blockTotals validates a redistribution: at least one source block,
// no negative target size, and matching item totals. It returns the
// total item count n.
func blockTotals[T any](in [][]T, outSizes []int64) (int64, error) {
	if len(in) == 0 {
		return 0, fmt.Errorf("engine: need at least one input block")
	}
	var n int64
	for _, b := range in {
		n += int64(len(b))
	}
	var outN int64
	for _, s := range outSizes {
		if s < 0 {
			return 0, fmt.Errorf("engine: negative target block size %d", s)
		}
		outN += s
	}
	if n != outN {
		return 0, fmt.Errorf("engine: source total %d != target total %d", n, outN)
	}
	return n, nil
}

// splitBlocks partitions flat into consecutive blocks of the given
// sizes; the blocks alias flat's backing array.
func splitBlocks[T any](flat []T, outSizes []int64) [][]T {
	out := make([][]T, len(outSizes))
	var run int64
	for j, s := range outSizes {
		out[j] = flat[run : run+s : run+s]
		run += s
	}
	return out
}
