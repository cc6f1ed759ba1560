package engine

import (
	"math/bits"

	"randperm/internal/core"
	"randperm/internal/xrand"
)

// The flat shared-memory path: a k-way scatter shuffle in the style of
// Rao (1961) / Sandelius (1962), the same algorithm modern shared-memory
// shuffling engines converge on. Every item draws an i.i.d. uniform
// bucket label (a few bits, so one 64-bit word yields ~21 labels); the
// per-chunk label counts are the rows of a communication matrix whose
// prefix sums become disjoint write offsets, exactly as in PermuteBlocks
// - the only difference is the matrix's law (free multinomial margins
// here, fixed hypergeometric margins there, both of which make the final
// result exactly uniform). Items are then scattered straight into their
// bucket's range of the output and every bucket is shuffled in place
// with Fisher-Yates, cache-resident by construction.
//
// Uniformity: condition on the label vector. The set of items landing in
// each bucket is exchangeable (labels are i.i.d.), the buckets partition
// the output into contiguous ranges, and each bucket is then permuted
// uniformly and independently, so every interleaving and every
// within-bucket order is equally likely; summing over label vectors
// keeps the mixture uniform. Buckets larger than the cache cutoff are
// simply split again (the Rao-Sandelius recursion).

const (
	// fyCutoff is the segment size below which a plain Fisher-Yates is
	// used directly: 1<<16 8-byte items is half a MiB, comfortably
	// inside one core's L2, where FY's random accesses are cheap.
	fyCutoff = 1 << 16
	// maxBuckets caps the split fan-out so a label always fits a byte;
	// larger inputs recurse instead.
	maxBuckets = 256
)

// permuteFlat returns a uniformly shuffled copy of data. Labels are
// drawn chunk by chunk (chunks ~ the public Procs knob) with one RNG
// stream per chunk and one per bucket, so the result is deterministic in
// (seed, chunks, len(data)) and independent of the worker count.
// cutoff/maxK are fyCutoff/maxBuckets, parameterized so tests can force
// deep recursion on tiny inputs.
func permuteFlat[T any](data []T, chunks int, opt Options, cutoff, maxK int) ([]T, error) {
	n := len(data)
	if chunks < 1 {
		chunks = 1
	}

	if n <= cutoffLimit(cutoff) {
		// Too small to be worth scattering: one fused copy+shuffle.
		streams := xrand.NewStreams(opt.Seed, 1)
		out := make([]T, n)
		insideOut(streams[0], data, out)
		return out, nil
	}

	k := bucketCountFor(n, cutoff, maxK)
	streams := xrand.NewStreams(opt.Seed, chunks+k)
	// No phase is wider than max(chunks, k) tasks, so a larger pool
	// would only spawn idle workers (and their streams).
	pool := NewPoolCancel(min(opt.workers(), max(chunks, k)), opt.Seed, opt.Cancel)
	defer pool.Close()

	// Phase 1: i.i.d. bucket labels, generated per chunk so chunks can
	// run in parallel; counts[c][b] is the communication matrix.
	chunkSizes := core.EvenBlocks(int64(n), chunks)
	chunkOff := make([]int64, chunks)
	var run int64
	for c, s := range chunkSizes {
		chunkOff[c] = run
		run += s
	}
	labels := make([]uint8, n)
	counts := make([][]int64, chunks)
	if err := pool.For(chunks, func(c int) {
		counts[c] = fillLabels(streams[c], labels[chunkOff[c]:chunkOff[c]+chunkSizes[c]], k)
	}); err != nil {
		return nil, err
	}

	// Phase 2: prefix sums over the matrix in bucket-major order turn
	// the counts into disjoint write offsets: bucket b's range holds
	// chunk 0's items first, then chunk 1's, and so on.
	bucketStart := make([]int64, k+1)
	for b := 0; b < k; b++ {
		bucketStart[b+1] = bucketStart[b]
		for c := 0; c < chunks; c++ {
			bucketStart[b+1] += counts[c][b]
		}
	}
	fill := make([][]int64, chunks)
	{
		next := append([]int64(nil), bucketStart[:k]...)
		for c := 0; c < chunks; c++ {
			fill[c] = append([]int64(nil), next...)
			for b := 0; b < k; b++ {
				next[b] += counts[c][b]
			}
		}
	}

	// Phase 3: scatter. Each (chunk, bucket) range is owned by exactly
	// one chunk, so concurrent writes never overlap. The per-chunk fill
	// cursors are copied into a fixed 256-slot array so the uint8 label
	// indexes it bounds-check-free; writes to each bucket's range stay
	// sequential (one cache-line-friendly stream per bucket), which is
	// what keeps the scatter prefetchable by the hardware stride
	// prefetchers despite the random bucket choice per item.
	out := make([]T, n)
	if err := pool.For(chunks, func(c int) {
		var f [maxBuckets]int64
		copy(f[:], fill[c])
		lab := labels[chunkOff[c] : chunkOff[c]+chunkSizes[c]]
		for i, v := range data[chunkOff[c] : chunkOff[c]+chunkSizes[c]] {
			b := lab[i]
			out[f[b]] = v
			f[b]++
		}
	}); err != nil {
		return nil, err
	}

	// Phase 4: local shuffle of every bucket, splitting again if a
	// bucket is still beyond the cache cutoff.
	if err := pool.For(k, func(b int) {
		refine(streams[chunks+b], out[bucketStart[b]:bucketStart[b+1]], cutoff, maxK)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// cutoffLimit adds an eighth of slack to the cache cutoff: a segment
// marginally over budget (n = 2^20 cut into 8 buckets of 2^17+1, say)
// should be Fisher-Yates'd directly, not pay a whole extra scatter
// level over a one-item overage.
func cutoffLimit(cutoff int) int { return cutoff + cutoff/8 }

// bucketCountFor picks the smallest power-of-two bucket count that
// brings the expected bucket size under the (slackened) cutoff, capped
// at maxK.
func bucketCountFor(n, cutoff, maxK int) int {
	limit := cutoffLimit(cutoff)
	k := 2
	for k < maxK && (n+k-1)/k > limit {
		k <<= 1
	}
	return k
}

// fillLabels fills lab with i.i.d. uniform labels in [0, k) - k is a
// power of two, so the labels are plain bit groups and one raw draw
// yields floor(64/bits) of them, rejection free - and returns the label
// histogram.
func fillLabels(rng *xrand.Xoshiro256, lab []uint8, k int) []int64 {
	bits := 1
	for 1<<bits < k {
		bits++
	}
	per := 64 / bits
	mask := uint64(k - 1)
	// Fixed-size histogram so the uint8 label indexes it with no bounds
	// check in the decode loop.
	var counts [maxBuckets]int64
	i := 0
	for i+per <= len(lab) {
		w := rng.Uint64()
		for t := 0; t < per; t++ {
			b := uint8(w & mask)
			w >>= uint(bits)
			lab[i] = b
			counts[b]++
			i++
		}
	}
	if i < len(lab) {
		w := rng.Uint64()
		for ; i < len(lab); i++ {
			b := uint8(w & mask)
			w >>= uint(bits)
			lab[i] = b
			counts[b]++
		}
	}
	return append([]int64(nil), counts[:k]...)
}

// refine shuffles seg uniformly in place: Fisher-Yates when it fits the
// cache budget, one more sequential scatter level otherwise.
func refine[T any](rng *xrand.Xoshiro256, seg []T, cutoff, maxK int) {
	if len(seg) <= cutoffLimit(cutoff) || len(seg) < 2 {
		shuffleX(rng, seg)
		return
	}
	k := bucketCountFor(len(seg), cutoff, maxK)
	labels := make([]uint8, len(seg))
	counts := fillLabels(rng, labels, k)
	start := make([]int64, k+1)
	fill := make([]int64, k)
	for b := 0; b < k; b++ {
		start[b+1] = start[b] + counts[b]
		fill[b] = start[b]
	}
	tmp := make([]T, len(seg))
	for i, v := range seg {
		b := labels[i]
		tmp[fill[b]] = v
		fill[b]++
	}
	copy(seg, tmp)
	for b := 0; b < k; b++ {
		refine(rng, seg[start[b]:start[b+1]], cutoff, maxK)
	}
}

// insideOut writes a uniformly shuffled copy of src into dst (inside-out
// Fisher-Yates, fusing the copy with the shuffle): dst[i] takes the
// value displaced from a uniform position j <= i, so src is untouched.
// Like shuffleX it runs on block-prefetched raw words, consuming them in
// exact stream order — including Intn's power-of-two mask special case,
// so the output stays byte-identical to the per-draw reference.
func insideOut[T any](rng *xrand.Xoshiro256, src, dst []T) {
	if len(src) == 0 {
		return
	}
	dst[0] = src[0]
	var buf [fyBatch]uint64
	i := 1
	for i < len(src) {
		have := min(fyBatch, len(src)-i)
		rng.Fill(buf[:have])
		used := 0
		for used < have {
			bound := uint64(i + 1)
			w := buf[used]
			used++
			var j int
			if bound&(bound-1) == 0 {
				j = int(w & (bound - 1))
			} else {
				hi, lo := bits.Mul64(w, bound)
				if lo < bound {
					thresh := -bound % bound
					for lo < thresh {
						if used == have {
							rng.Fill(buf[:1])
							used, have = 0, 1
						}
						hi, lo = bits.Mul64(buf[used], bound)
						used++
					}
				}
				j = int(hi)
			}
			dst[i] = dst[j]
			dst[j] = src[i]
			i++
		}
	}
}
