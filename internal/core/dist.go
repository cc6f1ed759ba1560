// Package core implements the paper's primary contribution: uniform
// random permutation of block-distributed data on a coarse grained
// parallel machine (Algorithm 1), driven by the three communication-matrix
// sampling strategies (Algorithm 3 at the root, Algorithm 5 with a log
// factor, and the cost-optimal Algorithm 6).
//
// All algorithms run SPMD-style on a pro.Machine; every processor draws
// randomness from its own jump-separated stream, so runs are deterministic
// in the seed while the processors remain statistically independent.
package core

import (
	"fmt"
)

// EvenBlocks returns block sizes for n items over p processors, as equal
// as possible. This is the symmetric M = n/p layout the paper's parallel
// algorithms are stated for; all code also accepts ragged layouts. The
// layout has one rule, which BlockStart and BlockOf apply without
// materializing the sizes: the first n mod p blocks get one more item.
func EvenBlocks(n int64, p int) []int64 {
	if p <= 0 || n < 0 {
		panic("core: EvenBlocks needs p > 0 and n >= 0")
	}
	sizes := make([]int64, p)
	base := n / int64(p)
	rem := n % int64(p)
	for i := range sizes {
		sizes[i] = base
		if int64(i) < rem {
			sizes[i]++
		}
	}
	return sizes
}

// BlockStart returns the first index of block b of EvenBlocks(n, p),
// for 0 <= b <= p; BlockStart(n, p, p) is n.
func BlockStart(n int64, p, b int) int64 {
	return int64(b)*(n/int64(p)) + min(int64(b), n%int64(p))
}

// BlockOf returns the block of EvenBlocks(n, p) that holds index i,
// for 0 <= i < n; it inverts BlockStart.
func BlockOf(n int64, p int, i int64) int {
	base, rem := n/int64(p), n%int64(p)
	t := rem * (base + 1)
	if i < t {
		return int(i / (base + 1))
	}
	return int(rem + (i-t)/base)
}

// BlockSizes returns the sizes of the given blocks as an int64 vector
// (the m_i of the paper).
func BlockSizes[T any](blocks [][]T) []int64 {
	sizes := make([]int64, len(blocks))
	for i, b := range blocks {
		sizes[i] = int64(len(b))
	}
	return sizes
}

// Flatten concatenates blocks into one slice, in block order.
func Flatten[T any](blocks [][]T) []T {
	var n int
	for _, b := range blocks {
		n += len(b)
	}
	out := make([]T, 0, n)
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

// Split cuts data into consecutive blocks of the given sizes. The blocks
// alias the input slice.
func Split[T any](data []T, sizes []int64) ([][]T, error) {
	var total int64
	for _, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("core: negative block size %d", s)
		}
		total += s
	}
	if total != int64(len(data)) {
		return nil, fmt.Errorf("core: block sizes sum to %d, data has %d items", total, len(data))
	}
	blocks := make([][]T, len(sizes))
	off := int64(0)
	for i, s := range sizes {
		blocks[i] = data[off : off+s]
		off += s
	}
	return blocks, nil
}

// checkPermuteArgs validates an Algorithm 1 invocation: one input block
// per processor and target sizes with the same total.
func checkPermuteArgs(p int, rowM, colM []int64) error {
	if len(rowM) != p {
		return fmt.Errorf("core: %d input blocks for %d processors", len(rowM), p)
	}
	if len(colM) != p {
		return fmt.Errorf("core: %d target blocks for %d processors", len(colM), p)
	}
	var rn, cn int64
	for _, v := range rowM {
		if v < 0 {
			return fmt.Errorf("core: negative source block size %d", v)
		}
		rn += v
	}
	for _, v := range colM {
		if v < 0 {
			return fmt.Errorf("core: negative target block size %d", v)
		}
		cn += v
	}
	if rn != cn {
		return fmt.Errorf("core: source total %d != target total %d", rn, cn)
	}
	return nil
}
