package engine

import (
	"fmt"

	"randperm/internal/commat"
	"randperm/internal/core"
	"randperm/internal/xrand"
)

// This file is the blocked decomposition of the paper's Algorithm 1,
// written once for every place that runs it: in process by
// PermuteBlocks and PermuteSliceCGM (the BackendCluster path of the
// public API), and across machines by internal/cluster, where each
// node runs only its own rows and columns and the item movement
// becomes a real h-relation over HTTP. Both call the same CGM on the
// same streams, so their bytes agree by construction.

// CGM is the blocked decomposition for one seed and one pair of block
// layouts, p source blocks into pp target blocks. Making it is round 1;
// Labels and RouteIota are round 2 for one source block, into a
// Window's segments; Arrange is round 3 for one target block. Every
// call reads a fresh copy of its block's stream, so a CGM is safe for
// concurrent use and any call can be repeated with the same result.
type CGM struct {
	a *commat.Matrix
	// streams[0] samples the matrix, streams[1+i] arranges source block
	// i's labels, streams[1+p+j] arranges target block j. NewStreams
	// makes stream k independent of how many are derived, so a node
	// running two blocks of 16 draws what one process running all 16
	// draws.
	streams        []*xrand.Xoshiro256
	srcOff, dstOff []int64 // block prefix offsets, len p+1 and pp+1
}

// NewCGM runs round 1 for seed: it samples the exact fixed-margin
// communication matrix (Algorithm 3) for source blocks of srcSizes and
// target blocks of dstSizes, whose totals must agree.
func NewCGM(seed uint64, srcSizes, dstSizes []int64) *CGM {
	streams := xrand.NewStreams(seed, 1+len(srcSizes)+len(dstSizes))
	return &CGM{
		a:       commat.SampleSeq(streams[0], srcSizes, dstSizes),
		streams: streams,
		srcOff:  prefixOffsets(srcSizes),
		dstOff:  prefixOffsets(dstSizes),
	}
}

func prefixOffsets(sizes []int64) []int64 {
	off := make([]int64, len(sizes)+1)
	for i, s := range sizes {
		off[i+1] = off[i] + s
	}
	return off
}

// Matrix returns the communication matrix: entry (i, j) counts source
// block i's items bound for target block j. It must not be modified.
func (c *CGM) Matrix() *commat.Matrix { return c.a }

// Labels draws the label arrangement of source block i, round 2's one
// draw: a uniformly random arrangement of {j repeated a_ij times}, so
// labels[t] is the target block of the block's t-th item.
func (c *CGM) Labels(i int) []int32 { return c.LabelsInto(nil, i) }

// LabelsInto is Labels drawn into buf's storage when it has room, so a
// caller routing one source block at a time reuses one buffer.
func (c *CGM) LabelsInto(buf []int32, i int) []int32 {
	return arrangeRow(c.streams[1+i].Clone(), c.a.Row(i), buf)
}

// arrangeRow draws the label arrangement of a matrix row from rng into
// buf's storage, consuming exactly the draws routeBlock consumes for
// the same row.
func arrangeRow(rng *xrand.Xoshiro256, row []int64, buf []int32) []int32 {
	var total int64
	for _, c := range row {
		total += c
	}
	if int64(cap(buf)) < total {
		buf = make([]int32, total)
	}
	labels := buf[:total]
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

// Window lays out round 2's segments for the target blocks [lo, hi):
// where segment (i, j), the items source block i sends target block j,
// begins in source i's buffer. Labels of the other targets go to the
// slot just past the buffer, the sink.
type Window struct {
	c      *CGM
	lo, hi int
	at     [][]int64 // at[i][j]: segment (i, j)'s start, for lo <= j < hi
	size   []int64   // size[i]: the length of source i's buffer
}

// Window lays the target blocks [lo, hi) end to end in one buffer all
// sources share — a shard — each block holding its sources' segments
// in rank order.
func (c *CGM) Window(lo, hi int) *Window {
	colOff := make([]int64, c.a.Cols())
	for j := range colOff {
		colOff[j] = c.dstOff[j] - c.dstOff[lo]
	}
	size := make([]int64, c.a.Rows())
	for i := range size {
		size[i] = c.dstOff[hi] - c.dstOff[lo]
	}
	return &Window{c: c, lo: lo, hi: hi, at: scatterStarts(c.a, colOff), size: size}
}

// Exchange gives each source block a buffer of its own holding its
// segments for the target blocks [lo, hi) back to back, in target
// order — the order of an exchange response.
func (c *CGM) Exchange(lo, hi int) *Window {
	at := make([][]int64, c.a.Rows())
	size := make([]int64, len(at))
	for i := range at {
		at[i] = make([]int64, c.a.Cols())
		for j := lo; j < hi; j++ {
			at[i][j] = size[i]
			size[i] += c.a.At(i, j)
		}
	}
	return &Window{c: c, lo: lo, hi: hi, at: at, size: size}
}

// Len returns the length of source i's buffer, without the sink.
func (w *Window) Len(i int) int64 { return w.size[i] }

// Segment returns where segment (i, j) lies in source i's buffer, for
// a target block j of the window.
func (w *Window) Segment(i, j int) (lo, hi int64) {
	return w.at[i][j], w.at[i][j] + w.c.a.At(i, j)
}

// RouteIota is round 2 for source block i, whose items are its indexes
// in [0, n): the t-th index goes to the next position of the segment of
// target labels[t] in dst, so each segment keeps source order. labels
// must be c.Labels(i) or c.LabelsInto(buf, i). dst holds w.Len(i)
// values and then the sink. A window that spans every target block
// writes no sink, so dst may end at w.Len(i), and sources write
// disjoint positions of a shared Window buffer: they may be routed
// concurrently.
func RouteIota[T int32 | int64](w *Window, i int, labels []int32, dst []T) {
	// A target outside the window starts at the sink and never
	// advances, which keeps the loop free of a data-dependent branch.
	cur := make([]int64, len(w.at[i]))
	step := make([]int64, len(cur))
	for j := range cur {
		cur[j] = w.size[i]
	}
	for j := w.lo; j < w.hi; j++ {
		cur[j], step[j] = w.at[i][j], 1
	}
	v := T(w.c.srcOff[i])
	for _, j := range labels {
		x := cur[j]
		dst[x] = v
		cur[j] = x + step[j]
		v++
	}
}

// Arrange is round 3 for target block j of a CGM.Window laid out in
// buf: the block is arranged uniformly in place from its own stream,
// mixing the contributions of every source (the paper's phase 4).
func Arrange[T any](w *Window, j int, buf []T) {
	c, base := w.c, w.c.dstOff[w.lo]
	shuffleX(c.streams[1+c.a.Rows()+j].Clone(), buf[c.dstOff[j]-base:c.dstOff[j+1]-base])
}

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
// internal/cluster), because both sides run the same CGM — only the
// locality of the item movement differs. The input is not modified.
func PermuteSliceCGM[T any](data []T, p int, opt Options) ([]T, error) {
	if p < 1 {
		return nil, fmt.Errorf("engine: CGM decomposition needs p >= 1, got %d", p)
	}
	sizes := core.EvenBlocks(int64(len(data)), p)
	return permute(splitBlocks(data, sizes), sizes, opt)
}

// permuteCGMIota is PermuteSliceCGM over the identity of [0, n) without
// the identity: every source block's indexes are routed by RouteIota.
// Its output equals PermuteSliceCGM(identity) byte for byte.
func permuteCGMIota[T int32 | int64](n, p int, opt Options) ([]T, error) {
	if p < 1 {
		return nil, fmt.Errorf("engine: CGM decomposition needs p >= 1, got %d", p)
	}
	sizes := core.EvenBlocks(int64(n), p)
	c := NewCGM(opt.Seed, sizes, sizes)
	return scatterBlocks(c, opt, func(w *Window, i int, flat []T) {
		RouteIota(w, i, c.Labels(i), flat)
	})
}
