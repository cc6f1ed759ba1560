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
	return flatShuffle(len(data), chunks, opt, cutoff, maxK,
		func(out []T) { copy(out, data) },
		func(out []T, lo int64, lab []uint8, start *[maxBuckets]int64) {
			f := *start
			for i, v := range data[lo : lo+int64(len(lab))] {
				b := lab[i]
				out[f[b]] = v
				f[b]++
			}
		})
}

// permuteFlatIota is permuteFlat over the identity of [0, n) without
// the identity: every item's value is its index, so the scatter writes
// the index where permuteFlat reads the item. Its output equals
// permuteFlat(identity) byte for byte.
func permuteFlatIota[T int32 | int64](n, chunks int, opt Options, cutoff, maxK int) ([]T, error) {
	return flatShuffle(n, chunks, opt, cutoff, maxK,
		fillIota[T],
		func(out []T, lo int64, lab []uint8, start *[maxBuckets]int64) {
			f := *start
			for i, b := range lab {
				out[f[b]] = T(lo + int64(i))
				f[b]++
			}
		})
}

// flatShuffle is the data-independent frame of the flat scatter: it
// samples the labels, turns their counts into write offsets and refines
// the buckets, and leaves the two item kernels to the caller. load
// fills out with the items in input order (the small-input path);
// scatter moves the items of the chunk starting at input position lo,
// whose labels are lab, to their buckets' write offsets start[label]
// onward. The kernels run once per chunk, so only their own loops touch
// items.
func flatShuffle[T any](n, chunks int, opt Options, cutoff, maxK int,
	load func(out []T),
	scatter func(out []T, lo int64, lab []uint8, start *[maxBuckets]int64),
) ([]T, error) {
	if chunks < 1 {
		chunks = 1
	}

	out := make([]T, n)
	if n <= cutoffLimit(cutoff) {
		// Too small to be worth scattering: one forward Fisher-Yates
		// pass over the items in input order.
		load(out)
		foldIn(xrand.NewStreams(opt.Seed, 1)[0], out, 1)
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
	fill := make([][maxBuckets]int64, chunks)
	{
		next := append([]int64(nil), bucketStart[:k]...)
		for c := 0; c < chunks; c++ {
			copy(fill[c][:], next)
			for b := 0; b < k; b++ {
				next[b] += counts[c][b]
			}
		}
	}

	// Phase 3: scatter. Each (chunk, bucket) range is owned by exactly
	// one chunk, so concurrent writes never overlap. The per-chunk fill
	// cursors are a fixed 256-slot array so the uint8 label indexes it
	// bounds-check-free; each kernel advances its own copy, held in its
	// frame (through the pointer the loop runs several times slower).
	// Writes to each bucket's range stay sequential (one
	// cache-line-friendly stream per bucket), which is what keeps the
	// scatter prefetchable by the hardware stride prefetchers despite
	// the random bucket choice per item.
	if err := pool.For(chunks, func(c int) {
		scatter(out, chunkOff[c], labels[chunkOff[c]:chunkOff[c]+chunkSizes[c]], &fill[c])
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

// foldIn extends the uniformly shuffled prefix a[:i] to all of a by
// forward Fisher-Yates insertion: a[i] swaps with a uniform position
// k <= i, for i ascending. It runs on block-prefetched raw words,
// consuming them in the exact order rng.Intn would (including its
// power-of-two mask special case), so the output stays byte-identical to
// the per-draw reference.
func foldIn[T any](rng *xrand.Xoshiro256, a []T, i int) {
	var buf [fyBatch]uint64
	for i < len(a) {
		have := min(fyBatch, len(a)-i)
		rng.Fill(buf[:have])
		used := 0
		for used < have {
			bound := uint64(i + 1)
			w := buf[used]
			used++
			var k int
			if bound&(bound-1) == 0 {
				k = int(w & (bound - 1))
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
				k = int(hi)
			}
			a[i], a[k] = a[k], a[i]
			i++
		}
	}
}

// fillIota writes the identity 0, 1, ..., len(a)-1 into a.
func fillIota[T int32 | int64](a []T) {
	for i := range a {
		a[i] = T(i)
	}
}
