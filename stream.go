package randperm

import (
	"context"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"

	"randperm/internal/core"
	"randperm/internal/engine"
)

// A Permuter is a reusable handle on one fixed permutation of
// [0, n): the streaming form of the package's API. Where
// ParallelShuffle materializes an entire permuted slice in one call, a
// Permuter hands out the permutation chunk by chunk — a page of
// results, a shard of an ID space, a single position — so callers can
// walk data far larger than any one machine's memory, the coarse
// grained setting the source paper starts from.
//
// A handle is backed in one of two ways. On BackendBijective it holds
// a keyed Feistel bijection (built once in NewPermuter) that computes
// each position in O(1) state, so Chunk fills its destination with
// zero allocations regardless of n, and n may exceed available memory
// by any factor. On the materializing backends (Sim, SharedMem,
// InPlace, Cluster) it holds one re-armable build: the full
// permutation, constructed lazily on first use with the selected
// backend's engine into one buffer of n positions — 4 bytes each for
// n <= 2^31-1, 8 above — and reused by every subsequent Chunk, Iter
// and At. Chunk validates the range and reads from whichever backing
// the handle holds; At and Iter are Chunk reads.
//
// Determinism: the permutation a Permuter exposes is a pure function of
// (Backend, Seed, Procs, n) — on BackendBijective, of (Seed, Rounds, n),
// where Rounds <= 0 is the default 12-round family —
// and is independent of Parallelism, of chunk boundaries, and of how
// many times or in what order the chunks are pulled. Pulling chunk
// [a, b) today and chunk [b, c) tomorrow yields exactly the
// concatenation a single [a, c) pull would have.
//
// Concurrency: Chunk, At, Iter and Len are safe for concurrent use —
// on BackendBijective they are pure computation, and the materializing
// backends build under a sync.Once and only read afterwards. Reset is
// the one exception: it re-keys the handle and must not run
// concurrently with any other method.
//
// Distribution: the Permuter inherits its backend's distribution.
// Sim, SharedMem and InPlace draw from the exactly uniform law over all
// n! permutations; BackendBijective draws from a 2^64-key family with
// uniform single-position marginals (the precise statement lives on the
// BackendBijective constant). Check Options.Backend.ExactUniform when
// exactness matters.
type Permuter struct {
	n    int64
	opt  Options
	bij  *engine.Bijection // BackendBijective; nil on the materializing backends
	lazy *lazySource       // the materializing backends; nil on BackendBijective
}

// rekey installs the backing p.opt.Backend selects: the keyed
// bijection on BackendBijective, a lazily built buffer (firing hook on
// each build) on every other. NewPermuter installs it and Reset
// rebuilds it. Both are read only through Permuter.Chunk, so they
// receive ranges already validated and clamped to [0, n).
func (p *Permuter) rekey(hook func()) {
	if p.opt.Backend == BackendBijective {
		p.bij = newBijection(p.n, p.opt)
		return
	}
	p.lazy = &lazySource{n: p.n, opt: p.opt, hook: hook}
	p.lazy.mat.Store(&permMat{})
}

// lazySource serves the materializing backends from one build of the
// permutation, run on first access by the backend's engine straight
// from the indexes (see materialize). It owns the re-armable build, the
// OnMaterialize hook and the build's cancellation.
type lazySource struct {
	n    int64
	opt  Options
	hook func()                  // OnMaterialize callback, fired inside each build
	mat  atomic.Pointer[permMat] // the current build; swapped for a fresh one when a build fails
}

// permMat is one lazy build; a fresh one is installed by a failed or
// canceled build so the sync.Once can be re-armed.
type permMat struct {
	once  sync.Once
	perm  engine.Positions
	err   error
	built atomic.Bool // set after a successful build, for Materialized
}

func (l *lazySource) materialized() bool { return l.mat.Load().built.Load() }

// build builds (once) and returns the full permutation; racing callers
// all observe the completed build. The build threads ctx.Done() into the
// engine worker pools, and a build that fails — canceled or otherwise —
// swaps a fresh permMat into place so the next accessor retries instead
// of replaying the error forever. The swap is a CompareAndSwap against
// the permMat that ran the build, so a newer build is never clobbered.
func (l *lazySource) build(ctx context.Context) (engine.Positions, error) {
	m := l.mat.Load()
	m.once.Do(func() {
		build := engine.ByWidth(l.n, materialize[int32], materialize[int64])
		m.perm, m.err = build(l.n, l.opt, ctx.Done())
		if m.err != nil && ctx.Err() != nil {
			m.err = fmt.Errorf("randperm: materialize: %w", ctx.Err())
		}
		if m.err != nil {
			l.mat.CompareAndSwap(m, &permMat{})
			return
		}
		if l.hook != nil {
			l.hook()
		}
		m.built.Store(true)
	})
	return m.perm, m.err
}

// materialize builds the permutation of [0, n) that ParallelShuffle of
// the identity computes under opt, stored as T. Sim runs the simulated
// machine over an identity of T; every other backend builds straight
// from the indexes (engine.PermuteIota), which yields the same bytes
// without allocating or copying an identity. cancel is threaded into
// the engine worker pools; Sim has none and ignores it.
func materialize[T int32 | int64](n int64, opt Options, cancel <-chan struct{}) (engine.Positions, error) {
	var perm []T
	var err error
	if opt.Backend == BackendSim {
		perm, _, err = core.PermuteSlice(engine.Iota[T](int(n)), opt.Procs, opt.coreConfig())
	} else {
		perm, err = engine.PermuteIota[T](opt.Backend.internal(), int(n), opt.Procs, opt.engineOptions(cancel))
	}
	return engine.PosSlice[T](perm), err
}

// NewPermuter validates the options and returns a handle on the
// permutation of [0, n) they select. The call is cheap for every
// backend: key expansion on BackendBijective, and nothing but
// validation on the materializing backends, which defer their n-position
// build to the first access. n must be non-negative, and on the
// materializing backends must fit in memory when first accessed;
// BackendBijective has no such bound (n up to 2^62 is meaningful).
func NewPermuter(n int64, opt Options) (*Permuter, error) {
	if n < 0 {
		return nil, fmt.Errorf("randperm: NewPermuter with negative length %d", n)
	}
	opt = opt.withDefaults()
	if opt.Procs < 1 {
		return nil, fmt.Errorf("randperm: Procs must be positive, got %d", opt.Procs)
	}
	p := &Permuter{n: n, opt: opt}
	p.rekey(nil)
	return p, nil
}

// newBijection builds the keyed bijection opt selects: the default
// 12-round family, or the (Seed, Rounds)-versioned family when
// Options.Rounds is set.
func newBijection(n int64, opt Options) *engine.Bijection {
	if opt.Rounds > 0 {
		return engine.NewBijectionRounds(n, opt.Seed, opt.Rounds)
	}
	return engine.NewBijection(n, opt.Seed)
}

// Len returns the length n of the permuted index space.
func (p *Permuter) Len() int64 { return p.n }

// Backend returns the backend the permutation is computed on.
func (p *Permuter) Backend() Backend { return p.opt.Backend }

// Chunk fills dst with consecutive positions of the permutation
// starting at start — dst[k] = π(start+k) — and returns how many values
// were written: min(len(dst), Len()-start), so a short count (with a
// nil error) signals the end of the index space. start must be in
// [0, Len()]. On BackendBijective the call performs no allocation and
// touches O(1) state per value; on the materializing backends the first
// Chunk (or At or Iter) across the handle's lifetime builds the full
// permutation once and every call after that is a copy. Chunk is safe
// for concurrent use, including overlapping ranges.
func (p *Permuter) Chunk(dst []int64, start int64) (int, error) {
	if start < 0 || start > p.n {
		return 0, fmt.Errorf("randperm: Chunk start %d outside [0, %d]", start, p.n)
	}
	if rest := p.n - start; int64(len(dst)) > rest {
		dst = dst[:rest]
	}
	if p.bij != nil {
		// Batch evaluation runs the chunk's indices through the
		// Feistel network several lanes at a time (see
		// engine.Bijection.Chunk).
		p.bij.Chunk(dst, start)
		return len(dst), nil
	}
	perm, err := p.lazy.build(context.Background())
	if err != nil {
		return 0, err
	}
	perm.Read(dst, start)
	return len(dst), nil
}

// At returns π(i), the single position i of the permutation. i must be
// in [0, Len()). O(1) on BackendBijective; on the materializing
// backends it triggers the same one-time build as Chunk.
func (p *Permuter) At(i int64) int64 {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("randperm: Permuter.At(%d) outside [0, %d)", i, p.n))
	}
	var one [1]int64
	if _, err := p.Chunk(one[:], i); err != nil {
		panic(err)
	}
	return one[0]
}

// iterPage is the page Iter pulls through Chunk: large enough to batch
// the bijection, small enough that an early break wastes little work.
const iterPage = 1 << 12

// Iter returns a Go 1.23+ range-over-func iterator yielding
// π(0), π(1), …, π(n-1) in order:
//
//	for v := range p.Iter() { ... }
//
// Early break is honored. On BackendBijective the iteration holds O(1)
// state; on the materializing backends it reads the one lazily-built
// permutation (and panics in the vanishingly unlikely case that build
// fails — callers that must handle that error should pull through Chunk
// instead).
func (p *Permuter) Iter() iter.Seq[int64] {
	return func(yield func(int64) bool) {
		buf := make([]int64, min(p.n, iterPage))
		for pos := int64(0); pos < p.n; {
			m, err := p.Chunk(buf, pos)
			if err != nil {
				panic(err)
			}
			for _, v := range buf[:m] {
				if !yield(v) {
					return
				}
			}
			pos += int64(m)
		}
	}
}

// Reset re-keys the handle to a new seed, as if it had been constructed
// with NewPermuter(Len(), opt-with-new-Seed): the bijection is re-keyed
// and any materialized permutation is dropped and lazily rebuilt on next
// access. Reset must not be called concurrently with any other method on
// the handle.
func (p *Permuter) Reset(seed uint64) {
	var hook func()
	if p.lazy != nil {
		hook = p.lazy.hook
	}
	p.opt.Seed = seed
	p.rekey(hook)
}

// Materialized reports whether the handle's lazy build has already run.
// It is always false on BackendBijective, which never materializes
// anything, and flips to true (until the next Reset) once any Chunk, At,
// Iter or Materialize call on a materializing backend has completed the
// one-time build. Long-lived holders — a handle cache in a server, say —
// can use it to tell which cached handles are paying n positions of
// memory and which are still cheap.
func (p *Permuter) Materialized() bool {
	return p.lazy != nil && p.lazy.materialized()
}

// Materialize forces the lazy build now instead of on first access, and
// reports its error. On BackendBijective it is a no-op returning nil.
// Use it to front-load the n-position build at handle-construction time —
// warming a cache entry, or surfacing the out-of-memory error where it
// can still be handled — rather than inside the first request that
// touches the handle. Like the accessors, it is safe for concurrent use
// and racing callers share one build.
func (p *Permuter) Materialize() error {
	return p.MaterializeContext(context.Background())
}

// MaterializeContext is Materialize bounded by a context: if ctx is
// canceled while the n-position build is running, the engine worker pool
// stops claiming tasks, the half-built permutation is discarded, and the
// call returns ctx's error. A canceled build re-arms the handle — the
// next access (or MaterializeContext call) starts a fresh build, exactly
// as if the canceled one had never run — so a server can abort the work
// a disconnected client asked for without poisoning the handle for the
// clients that stayed. Racing callers share one build; the governing
// context is the one whose call started it, and co-waiters that lose
// their builder this way also receive its cancellation error (their
// retry hits the re-armed handle). On BackendBijective it is a no-op
// returning nil.
func (p *Permuter) MaterializeContext(ctx context.Context) error {
	if p.lazy == nil {
		return nil
	}
	_, err := p.lazy.build(ctx)
	return err
}

// OnMaterialize registers fn to be called exactly once per lazy build,
// from inside whichever call (Chunk, At, Iter or Materialize) triggers
// it, after the permutation has been constructed. A Reset re-arms the
// build, so fn fires again if the re-keyed handle is accessed. It is a
// hook for handle-reusing callers that need to observe build cost —
// counting materializations in a server's metrics, logging slow builds —
// without wrapping every accessor. Register it before the handle is
// shared: OnMaterialize must not be called concurrently with any other
// method. Registering nil clears the hook; on BackendBijective nothing
// is built, so the hook never fires.
func (p *Permuter) OnMaterialize(fn func()) {
	if p.lazy != nil {
		p.lazy.hook = fn
	}
}
