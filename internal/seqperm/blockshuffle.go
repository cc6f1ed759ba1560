package seqperm

import (
	"randperm/internal/commat"
	"randperm/internal/core"
	"randperm/internal/xrand"
)

// BlockShuffleOptions tunes the cache-friendly block shuffle.
type BlockShuffleOptions struct {
	// Fanout is the number of buckets per pass (the "virtual
	// processors" K). 0 selects the default.
	Fanout int
	// Threshold is the block size below which plain Fisher-Yates is
	// used (it should fit in cache). 0 selects the default.
	Threshold int
}

const (
	defaultFanout    = 64
	defaultThreshold = 1 << 15 // 32Ki items ~ 256 KiB of int64: L2-resident
)

// BlockShuffle permutes x uniformly in place using the paper's outlook
// idea (Section 6): run Algorithm 1 *sequentially*, with K virtual
// processors. The vector is cut into K chunks, a K x K communication
// matrix is sampled exactly (Algorithm 3), each locally-shuffled chunk is
// scattered to K buckets with sequential writes, and each bucket is
// shuffled recursively. Every memory pass is streaming except the
// in-cache Fisher-Yates leaves, trading the fully random access pattern
// of Fisher-Yates for O(n log_K n) streaming passes - the cache-miss
// avoidance the paper anticipates (experiment E8).
//
// Uniformity is inherited from Algorithm 1's proof: the matrix has the
// exact distribution and chunk/bucket shuffles supply the local
// randomness; tests chi-square it like every other shuffler.
func BlockShuffle[T any](src xrand.Source, x []T, opt BlockShuffleOptions) {
	fanout := opt.Fanout
	if fanout <= 0 {
		fanout = defaultFanout
	}
	if fanout < 2 {
		fanout = 2
	}
	threshold := opt.Threshold
	if threshold <= 0 {
		threshold = defaultThreshold
	}
	scratch := make([]T, len(x))
	blockShuffle(src, x, scratch, fanout, threshold)
}

func blockShuffle[T any](src xrand.Source, x, scratch []T, fanout, threshold int) {
	n := len(x)
	if n <= threshold || n <= fanout {
		FisherYates(src, x)
		return
	}

	// Virtual block layout: K source chunks and K target buckets, both
	// as even as possible.
	sizes := core.EvenBlocks(int64(n), fanout)
	a := commat.SampleSeq(src, sizes, sizes)

	// Bucket write cursors inside scratch.
	offsets := make([]int, fanout+1)
	for j := 0; j < fanout; j++ {
		offsets[j+1] = offsets[j] + int(sizes[j])
	}
	cursor := make([]int, fanout)
	copy(cursor, offsets[:fanout])

	// Pass 1: shuffle each chunk in cache, then scatter its segments
	// according to the matrix row (sequential reads, K sequential
	// write streams).
	chunkStart := 0
	for i := 0; i < fanout; i++ {
		chunk := x[chunkStart : chunkStart+int(sizes[i])]
		FisherYates(src, chunk)
		row := a.Row(i)
		seg := 0
		for j := 0; j < fanout; j++ {
			k := int(row[j])
			copy(scratch[cursor[j]:cursor[j]+k], chunk[seg:seg+k])
			cursor[j] += k
			seg += k
		}
		chunkStart += int(sizes[i])
	}

	// Pass 2: each bucket is an independent sub-problem.
	for j := 0; j < fanout; j++ {
		bucket := scratch[offsets[j]:offsets[j+1]]
		blockShuffle(src, bucket, x[offsets[j]:offsets[j+1]], fanout, threshold)
	}
	copy(x, scratch)
}
