package engine

import (
	"fmt"
	"math/bits"
	"sort"

	"randperm/internal/core"
	"randperm/internal/xrand"
)

// The bijective backend: instead of moving data through a communication
// matrix or a merge tree, it *computes* the permutation. A keyed
// variable-round Feistel network (the philox/Threefry school of
// counter-based randomness — Salmon et al., SC'11 — crossed with
// format-preserving encryption's cycle-walking) defines a bijection on
// the power-of-two superdomain [0, 2^M) covering [0, n); walking the
// cycle until the image lands back under n restricts it to a bijection
// on [0, n). Every index is evaluated independently in O(rounds) time
// and O(1) state, so any chunk of the permutation — a prefix, a shard,
// a single element — costs only the indexes actually asked for, and
// chunks parallelize embarrassingly. This is the design behind
// bandwidth-optimal GPU shuffling (Mitchell et al., "Bandwidth-Optimal
// Random Shuffling for GPUs", arXiv:2106.06161).
//
// Distribution, stated precisely: each key yields one exact permutation
// of [0, n), and the keyed family is indexed by a 64-bit seed, so at
// most 2^64 of the n! permutations are reachable — for n >= 21 that is
// a vanishing fraction, and the family is therefore NOT uniform over
// S_n. What the family does deliver (and what the chi-square tests in
// bijective_test.go pin down) is uniform *marginals*: over random
// seeds, Index(i) is uniform on [0, n) for every i. Callers that need
// exact uniformity over S_n — the statistical harness, for one —
// must gate on Backend.ExactUniform() and use Sim, SharedMem or
// InPlace.

// bijectiveRounds is the default Feistel depth. Four rounds make a
// pseudorandom permutation in the Luby-Rackoff sense against
// polynomially-bounded adversaries, but on the tiny half-widths small
// domains induce the bias of a shallow network is visible to a plain
// chi-square; twelve rounds of the 64-bit-mixer round function below
// leave no measurable marginal bias even on two-bit halves.
const bijectiveRounds = 12

// Bijection is a keyed bijection on [0, n): a balanced Feistel network
// over the smallest even-bit-width superdomain [0, 2^M) covering n,
// restricted to [0, n) by cycle-walking. The zero value is not valid;
// use NewBijection. A Bijection is immutable after construction, so its
// methods are safe for concurrent use.
type Bijection struct {
	n    int64    // domain size; Index maps [0, n) onto itself
	half uint     // bit width of each Feistel half (M = 2*half)
	mask uint64   // half-width mask, 2^half - 1
	keys []uint64 // per-round keys, expanded from the seed
	pre  []uint64 // keys premixed as k ^ k>>30 (see feistelRound); nil when half > 30
	seed uint64   // construction seed, for re-derivation and debugging
}

// NewBijection returns the bijection on [0, n) selected by seed, with
// the default round count. n must be non-negative; n <= 1 yields the
// identity on the trivial domain.
func NewBijection(n int64, seed uint64) *Bijection {
	return NewBijectionRounds(n, seed, bijectiveRounds)
}

// NewBijectionRounds is NewBijection with an explicit Feistel depth
// (minimum 1), the "variable" in variable-round: tests force shallow
// networks to expose bias, and latency-critical callers that only need
// decorrelation, not statistical quality, can trade rounds for speed.
func NewBijectionRounds(n int64, seed uint64, rounds int) *Bijection {
	if n < 0 {
		panic(fmt.Sprintf("engine: NewBijection with negative domain %d", n))
	}
	if rounds < 1 {
		rounds = 1
	}
	b := &Bijection{n: n, seed: seed}
	// M = 2*ceil(m/2) where m is the bit width of n-1: the smallest
	// even width whose power-of-two domain covers [0, n). Even width
	// keeps the Feistel halves balanced; cycle-walking absorbs the
	// at-most-4x overshoot (2^M < 4n).
	m := uint(bits.Len64(uint64(max(n-1, 1))))
	b.half = (m + 1) / 2
	b.mask = 1<<b.half - 1
	// Round keys are expanded with SplitMix64, the same seed-expansion
	// the xoshiro streams use; the bijection consumes no stream draws,
	// so it coexists with the Jump/LongJump families on any seed.
	sm := xrand.NewSplitMix64(seed)
	b.keys = make([]uint64, rounds)
	for i := range b.keys {
		b.keys[i] = sm.Uint64()
	}
	if b.half <= 30 {
		b.pre = make([]uint64, rounds)
		for i, k := range b.keys {
			b.pre[i] = k ^ k>>30
		}
	}
	return b
}

// N returns the domain size n.
func (b *Bijection) N() int64 { return b.n }

// Seed returns the seed the bijection was keyed with.
func (b *Bijection) Seed() uint64 { return b.seed }

// Index maps i to its position under the permutation: the stream
// backend's contract is out[i] = data[Index(i)]. i must be in [0, n).
// O(rounds) time, O(1) state, safe for concurrent use.
func (b *Bijection) Index(i int64) int64 {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("engine: Bijection.Index(%d) outside [0, %d)", i, b.n))
	}
	if b.n <= 1 {
		return i
	}
	// Cycle-walking: encrypt is a permutation of the superdomain, so
	// following its cycle from an in-domain point must revisit the
	// domain; the first in-domain image defines a permutation of
	// [0, n). Expected walk length is 2^M/n < 4.
	x := uint64(i)
	for {
		x = b.encrypt(x)
		if x < uint64(b.n) {
			return int64(x)
		}
	}
}

// Inverse maps a position back to the index that lands there:
// Inverse(Index(i)) == i. It walks the inverse cycle with the decrypt
// direction of the network. y must be in [0, n).
func (b *Bijection) Inverse(y int64) int64 {
	if y < 0 || y >= b.n {
		panic(fmt.Sprintf("engine: Bijection.Inverse(%d) outside [0, %d)", y, b.n))
	}
	if b.n <= 1 {
		return y
	}
	x := uint64(y)
	for {
		x = b.decrypt(x)
		if x < uint64(b.n) {
			return int64(x)
		}
	}
}

// bijLanes is the interleave width of the batched evaluator: enough
// independent Feistel chains in flight to hide the round function's
// multiply latency behind throughput (the serial evaluator is pure
// latency: ~15 cycles of dependent ALU work per round). The lane halves
// live in two 16-word stack arrays — L1, not registers; each pass of
// the round loop holds one lane's halves in registers at a time.
const bijLanes = 16

// Chunk fills dst[k] = Index(start+k) for k in [0, len(dst)): the batch
// evaluator behind Permuter.Chunk and the materializing helpers. The
// indices are evaluated bijLanes at a time with the rounds interleaved
// across lanes, so the independent per-index chains pipeline instead of
// serializing on each round's multiply latency; out-of-domain images
// are re-encrypted as a shrinking batch until every lane has walked
// back under n (cycle-walking, exactly the per-index walk Index does —
// same function, same result, pinned by TestBijectionChunkMatchesIndex).
// When the superdomain equals the domain (n a power of two with an even
// bit width) the walk is skipped entirely. start must satisfy
// 0 <= start and start+len(dst) <= n. Safe for concurrent use.
func (b *Bijection) Chunk(dst []int64, start int64) {
	if start < 0 || start+int64(len(dst)) > max(b.n, 1) {
		panic(fmt.Sprintf("engine: Bijection.Chunk [%d, %d) outside [0, %d)", start, start+int64(len(dst)), b.n))
	}
	if b.n <= 1 {
		for k := range dst {
			dst[k] = start + int64(k)
		}
		return
	}
	n := uint64(b.n)
	full := uint64(1)<<(2*b.half) == n
	var x [bijLanes]uint64
	var pend [bijLanes]int
	for k := 0; k < len(dst); {
		m := min(bijLanes, len(dst)-k)
		lanes := x[:m]
		for l := range lanes {
			lanes[l] = uint64(start) + uint64(k+l)
		}
		b.encryptLanes(lanes)
		if full {
			for l, v := range lanes {
				dst[k+l] = int64(v)
			}
		} else {
			// Optimistic write, then walk the escapees as a batch: lane
			// compaction keeps the re-encryptions interleaved too.
			np := 0
			for l, v := range lanes {
				if v < n {
					dst[k+l] = int64(v)
				} else {
					pend[np], x[np] = k+l, v
					np++
				}
			}
			for np > 0 {
				b.encryptLanes(x[:np])
				w := 0
				for l, v := range x[:np] {
					if v < n {
						dst[pend[l]] = int64(v)
					} else {
						pend[w], x[w] = pend[l], v
						w++
					}
				}
				np = w
			}
		}
		k += m
	}
}

// encryptLanes runs the Feistel network forward over every lane of x
// (len(x) <= bijLanes), round-major: one round's work for all lanes,
// then the next round. Each lane computes exactly encrypt(x[l]).
// Halves of at most 30 bits (domains n <= 2^60) run premixedRounds;
// wider halves run feistelRound as written.
func (b *Bijection) encryptLanes(x []uint64) {
	half, mask := b.half, b.mask
	var lbuf, rbuf [bijLanes]uint64
	ls, rs := lbuf[:len(x)], rbuf[:len(x)]
	for l, v := range x {
		ls[l], rs[l] = v>>half, v&mask
	}
	if b.pre != nil {
		premixedRounds(ls, rs, b.pre, mask)
	} else {
		// Two rounds per pass: the halves swap roles in registers,
		// halving the lane-array traffic (2 loads + 2 stores per pass
		// instead of 4).
		keys := b.keys
		for len(keys) >= 2 {
			k0, k1 := keys[0], keys[1]
			keys = keys[2:]
			for l := range ls {
				lv, rv := ls[l], rs[l]
				rv, lv = lv^(feistelRound(rv, k0)&mask), rv
				ls[l], rs[l] = rv, lv^(feistelRound(rv, k1)&mask)
			}
		}
		if len(keys) == 1 {
			k := keys[0]
			for l := range ls {
				f := feistelRound(rs[l], k) & mask
				ls[l], rs[l] = rs[l], ls[l]^f
			}
		}
	}
	for l := range x {
		x[l] = ls[l]<<half | rs[l]
	}
}

// premixedRounds runs the network keyed by the premixed keys pre over
// the lane halves ls, rs (halves of at most 30 bits): each round is
// feistelMix(r ^ pre[i]), one shift and one xor cheaper than
// feistelRound(r, keys[i]) and equal to it.
func premixedRounds(ls, rs, pre []uint64, mask uint64) {
	for i := 0; i+1 < len(pre); i += 2 {
		premixedPair(ls, rs, pre[i], pre[i+1], mask)
	}
	if len(pre)%2 == 1 {
		k := pre[len(pre)-1]
		rs = rs[:len(ls)]
		for l := range ls {
			f := feistelMix(rs[l]^k) & mask
			ls[l], rs[l] = rs[l], ls[l]^f
		}
	}
}

// premixedPair runs two premixed rounds over every lane. The halves
// swap roles in registers, halving the lane-array traffic (2 loads + 2
// stores per pass instead of 4), and the loop is a function of its own
// so nothing of its callers is live across it: every value then stays
// in a register, where inlined into encryptLanes the compiler spilled
// the round temporaries to the stack.
func premixedPair(ls, rs []uint64, k0, k1, mask uint64) {
	rs = rs[:len(ls)]
	for l := range ls {
		lv, rv := ls[l], rs[l]
		rv, lv = lv^(feistelMix(rv^k0)&mask), rv
		ls[l], rs[l] = rv, lv^(feistelMix(rv^k1)&mask)
	}
}

// encrypt runs the Feistel network forward over the superdomain.
func (b *Bijection) encrypt(x uint64) uint64 {
	l, r := x>>b.half, x&b.mask
	for _, k := range b.keys {
		l, r = r, l^(feistelRound(r, k)&b.mask)
	}
	return l<<b.half | r
}

// decrypt runs the network backward: the inverse of encrypt.
func (b *Bijection) decrypt(x uint64) uint64 {
	l, r := x>>b.half, x&b.mask
	for i := len(b.keys) - 1; i >= 0; i-- {
		l, r = r^(feistelRound(l, b.keys[i])&b.mask), l
	}
	return l<<b.half | r
}

// feistelRound is the round function F(r, k): the SplitMix64 finalizer
// (Stafford's Mix13 constants) applied to the keyed half. It needs no
// invertibility — Feistel networks are bijective for any F — only
// avalanche, which the finalizer's two multiply-xorshift stages supply
// across the full 64-bit word even when r occupies a few low bits.
//
// The first xorshift distributes over the key when r < 2^30: then
// (r^k)>>30 == k>>30, so (r^k) ^ (r^k)>>30 == r ^ (k ^ k>>30). A
// bijection whose halves are at most 30 bits wide stores that premixed
// key per round (Bijection.pre), and the lane loop computes
// F(r, k) = feistelMix(r ^ pre) — the same value, one shift and one xor
// fewer per round.
func feistelRound(r, k uint64) uint64 {
	x := r ^ k
	return feistelMix(x ^ x>>30)
}

// feistelMix is feistelRound after its first xorshift: the two
// multiply-xorshift stages.
func feistelMix(x uint64) uint64 {
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// bijPage is the index-page size of the materializing bijective loops:
// each worker evaluates a page of indices with the batch evaluator, then
// gathers the page in a second tight loop, so the Feistel pipeline never
// stalls on a data-cache miss. 4Ki indices is 32 KiB of scratch — L1.
const bijPage = 4096

// newBijectionOpt builds the bijection opt selects: seed from opt.Seed,
// depth from opt.Rounds (<= 0 means the default family).
func newBijectionOpt(n int64, opt Options) *Bijection {
	if opt.Rounds > 0 {
		return NewBijectionRounds(n, opt.Seed, opt.Rounds)
	}
	return NewBijection(n, opt.Seed)
}

// PermuteSliceBijective returns the permuted copy of data defined by the
// keyed bijection on [0, len(data)): out[i] = data[Index(i)]. `chunks`
// (<= 0 means defaultChunks) sets the decomposition evaluated on the
// pool; because every index is independent the result is deterministic
// in (Seed, Rounds, len(data)) alone — chunks and Options.Workers change
// only the schedule. The input is not modified.
func PermuteSliceBijective[T any](data []T, chunks int, opt Options) ([]T, error) {
	if chunks <= 0 {
		chunks = defaultChunks
	}
	n := int64(len(data))
	bij := newBijectionOpt(n, opt)
	out := make([]T, n)
	sizes := core.EvenBlocks(n, chunks)
	off := make([]int64, chunks+1)
	for c, s := range sizes {
		off[c+1] = off[c] + s
	}
	pool := NewPoolCancel(min(opt.workers(), chunks), opt.Seed, opt.Cancel)
	defer pool.Close()
	if err := pool.For(chunks, func(c int) {
		var idx [bijPage]int64
		for i := off[c]; i < off[c+1]; i += bijPage {
			m := min(int64(bijPage), off[c+1]-i)
			page := idx[:m]
			bij.Chunk(page, i)
			o := out[i : i+m]
			for k, j := range page {
				o[k] = data[j]
			}
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// PermuteBlocksBijective is the block-distributed form: the bijection is
// taken over the input blocks read in order — out[i] is the Index(i)-th
// item of the concatenation, located through the blocks' prefix offsets
// rather than a flattened copy, so the only n-sized allocation is the
// output itself. The result is split by outSizes; the returned blocks
// alias one freshly allocated backing slice and the input is not
// modified.
func PermuteBlocksBijective[T any](in [][]T, outSizes []int64, opt Options) ([][]T, error) {
	n, err := blockTotals(in, outSizes)
	if err != nil {
		return nil, err
	}
	p := len(in)
	starts := make([]int64, p+1)
	for b, blk := range in {
		starts[b+1] = starts[b] + int64(len(blk))
	}
	bij := newBijectionOpt(n, opt)
	out := make([]T, n)
	sizes := core.EvenBlocks(n, p)
	off := make([]int64, p+1)
	for c, s := range sizes {
		off[c+1] = off[c] + s
	}
	pool := NewPoolCancel(min(opt.workers(), p), opt.Seed, opt.Cancel)
	defer pool.Close()
	if err := pool.For(p, func(c int) {
		var idx [bijPage]int64
		for i := off[c]; i < off[c+1]; i += bijPage {
			m := min(int64(bijPage), off[c+1]-i)
			page := idx[:m]
			bij.Chunk(page, i)
			o := out[i : i+m]
			for k, j := range page {
				// The source blocks' offsets are sorted; binary-search
				// the block holding global index j (p <= sqrt(n), so
				// log p is noise against the Feistel evaluation).
				b := sort.Search(p, func(b int) bool { return starts[b+1] > j })
				o[k] = in[b][j-starts[b]]
			}
		}
	}); err != nil {
		return nil, err
	}
	return splitBlocks(out, outSizes), nil
}
