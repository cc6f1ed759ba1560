package randperm

import (
	"fmt"
	"runtime"

	"randperm/internal/core"
	"randperm/internal/engine"
	"randperm/internal/pro"
)

// Backend selects the execution engine behind ParallelShuffle and
// ParallelShuffleBlocks.
type Backend int

const (
	// BackendSim (the default) runs on the simulated PRO machine of the
	// paper: one goroutine per simulated processor, message passing
	// through mailboxes, and full superstep/byte/draw accounting in the
	// Report. This is the paper-fidelity path used by the experiment
	// harness.
	BackendSim Backend = iota
	// BackendSharedMem runs the same four phases of Algorithm 1
	// directly on shared memory, with no simulated machine at all: the
	// communication matrix is sampled once from its exact distribution,
	// its prefix sums become disjoint write offsets, and workers
	// scatter items straight into the output. Same uniform permutation
	// distribution, much faster; the Report carries no cost accounting
	// (only Procs is set) because nothing is simulated.
	BackendSharedMem
	// BackendInPlace is the MergeShuffle-style divide-and-conquer
	// engine (Bacher et al., arXiv:1508.03167): the array is split into
	// 2^k blocks (k from Options.Procs), each block is Fisher-Yates
	// shuffled concurrently, and adjacent runs are merged pairwise in k
	// parallel rounds using one random bit per placed item. It touches
	// no per-item auxiliary memory — no label arrays, no scatter buffer
	// — so beyond the API's single input copy the footprint is O(p).
	// Same uniform distribution; the Report carries only Procs.
	BackendInPlace
	// BackendBijective computes the permutation instead of constructing
	// it: a keyed variable-round Feistel bijection with cycle-walking
	// (internal/engine/bijective.go) maps each output index to a source
	// index in O(1) state, so any chunk of the result costs only the
	// indexes actually evaluated. It is the backend behind the streaming
	// Permuter API and the only backend that is NOT exactly uniform over
	// S_n: each Seed selects one exact permutation from a 2^64-key
	// family whose single-position marginals are uniform (chi-squared in
	// the test suite), but for n >= 21 most of the n! permutations are
	// unreachable. Gate exactness-sensitive callers on ExactUniform.
	// The Report carries only Procs.
	BackendBijective
	// BackendCluster is the blocked coarse-grained-multicomputer
	// decomposition: the slice is split into Procs even contiguous
	// blocks, the exact p x p communication matrix is sampled once, a
	// label arrangement routes every source block and every target
	// block is arranged in place — Algorithm 1 with the geometry that
	// survives a network boundary. In process it is a slower cousin of
	// BackendSharedMem (the fixed-margin matrix replaces the free
	// multinomial margins); its reason to exist is that N permd peers
	// can compute the same permutation cooperatively, each owning a
	// contiguous shard of the output, with byte-identical results for
	// the same (Seed, n, Procs) — see internal/cluster and
	// OPERATIONS.md. Exactly uniform; the Report carries only Procs.
	BackendCluster
)

// String names the backend ("sim", "shmem", "inplace", "bijective" or
// "cluster").
func (b Backend) String() string { return b.internal().String() }

// ExactUniform reports whether the backend draws from the exactly
// uniform distribution over all n! permutations. It is false only for
// BackendBijective, whose keyed-family distribution is documented on
// the constant; statistical tooling (the experiment harness and any
// caller whose correctness depends on exact uniformity) must check this
// gate before accepting a backend.
func (b Backend) ExactUniform() bool { return b != BackendBijective }

func (b Backend) internal() engine.Backend {
	switch b {
	case BackendSharedMem:
		return engine.SharedMem
	case BackendInPlace:
		return engine.InPlace
	case BackendBijective:
		return engine.Bijective
	case BackendCluster:
		return engine.Cluster
	default:
		return engine.Sim
	}
}

// ParseBackend converts a flag value ("sim", "shmem", "inplace",
// "bijective", "cluster") into a Backend.
func ParseBackend(s string) (Backend, error) {
	eb, ok := engine.ParseBackend(s)
	if !ok {
		return 0, fmt.Errorf("randperm: unknown backend %q (want sim, shmem, inplace, bijective or cluster)", s)
	}
	switch eb {
	case engine.SharedMem:
		return BackendSharedMem, nil
	case engine.InPlace:
		return BackendInPlace, nil
	case engine.Bijective:
		return BackendBijective, nil
	case engine.Cluster:
		return BackendCluster, nil
	default:
		return BackendSim, nil
	}
}

// MatrixAlg selects how the parallel shuffle samples its communication
// matrix (Problem 2 of the paper).
type MatrixAlg int

const (
	// MatrixOpt is the paper's cost-optimal Algorithm 6 (default):
	// Theta(p) time, communication and random draws per processor.
	MatrixOpt MatrixAlg = iota
	// MatrixLog is the paper's Algorithm 5: simpler, but a log p
	// factor over optimal per processor.
	MatrixLog
	// MatrixSeq concentrates the sequential Algorithm 3 at processor 0
	// and scatters the rows: O(p^2) work at the root.
	MatrixSeq
)

func (a MatrixAlg) internal() core.MatrixAlg {
	switch a {
	case MatrixLog:
		return core.MatrixLog
	case MatrixSeq:
		return core.MatrixSeq
	default:
		return core.MatrixOpt
	}
}

// String names the algorithm.
func (a MatrixAlg) String() string { return a.internal().String() }

// Options configures a parallel shuffle.
type Options struct {
	// Procs is the decomposition width p: the number of simulated
	// processors on the Sim backend, the number of blocks on the
	// SharedMem and InPlace backends (default 8; InPlace rounds it up
	// to a power of two for its merge tree), and the scheduling chunk
	// count on the Bijective backend (where it cannot affect the
	// output: every index is computed independently). The paper's
	// coarseness assumption is p <= sqrt(n).
	Procs int
	// Seed drives all randomness; runs are reproducible in it.
	Seed uint64
	// Matrix selects the matrix sampling algorithm (default MatrixOpt).
	// The SharedMem backend ignores it: with shared memory there is
	// nothing to distribute, so the matrix is always sampled once with
	// the sequential Algorithm 3.
	Matrix MatrixAlg
	// Backend selects the execution engine (default BackendSim).
	Backend Backend
	// Parallelism caps the worker-pool goroutines of the SharedMem,
	// InPlace and Bijective backends (default GOMAXPROCS). It does not
	// affect the result: those backends bind randomness to blocks,
	// merge-tree nodes and index ranges rather than to workers, so
	// their output is deterministic in (Seed, Procs) alone — Bijective
	// in (Seed, Rounds, n) alone. The Sim backend ignores it and always
	// runs one goroutine per simulated processor.
	Parallelism int
	// Rounds sets the Feistel depth of BackendBijective (<= 0 means the
	// default, 12 rounds; every other backend ignores it). This is the
	// documented reduced-round mode: fewer rounds trade statistical
	// quality for evaluation speed, and the budget is stated in
	// BENCHMARKS.md (12 rounds shows no measurable marginal bias even on
	// two-bit Feistel halves; shallower networks fail chi-square tests
	// on small domains first). Each (Seed, Rounds) pair selects one
	// permutation from a distinct keyed family: outputs are versioned by
	// the pair, so changing Rounds is an explicit opt-out of the default
	// family's byte-determinism contract, never a silent drift — see the
	// determinism-contract note in ARCHITECTURE.md.
	Rounds int
}

func (o Options) withDefaults() Options {
	if o.Procs == 0 {
		o.Procs = 8
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Report summarizes the resources one parallel run consumed, the
// quantities bounded by Theorem 1 of the paper. Only the Sim backend
// simulates the machine these quantities live on; SharedMem, InPlace
// and Bijective runs fill in Procs and leave the accounting fields
// zero.
type Report struct {
	Procs      int   // machine size p
	Supersteps int   // number of BSP supersteps
	MaxOps     int64 // max per-processor local operations (balance)
	TotalOps   int64 // summed operations (work-optimality)
	MaxBytes   int64 // max per-processor communication volume
	MaxDraws   int64 // max per-processor raw random draws
	TotalDraws int64 // summed raw random draws
}

func reportFrom(m *pro.Machine) Report {
	r := m.Report()
	return Report{
		Procs:      r.P,
		Supersteps: r.Supersteps,
		MaxOps:     r.MaxOps(),
		TotalOps:   r.TotalOps(),
		MaxBytes:   r.MaxBytes(),
		MaxDraws:   r.MaxDraws(),
		TotalDraws: r.TotalDraws(),
	}
}

// ParallelShuffle returns a uniformly shuffled copy of data, computed by
// the paper's Algorithm 1 on the selected backend (by default, opt.Procs
// simulated processors), together with the resource report - fully
// populated on BackendSim, Procs-only on the other backends. The input
// is not modified.
func ParallelShuffle[T any](data []T, opt Options) ([]T, Report, error) {
	opt = opt.withDefaults()
	if opt.Procs < 1 {
		return nil, Report{}, fmt.Errorf("randperm: Procs must be positive, got %d", opt.Procs)
	}
	eopt := opt.engineOptions(nil)
	var out []T
	var err error
	switch opt.Backend {
	case BackendSharedMem:
		out, err = engine.PermuteSlice(data, opt.Procs, eopt)
	case BackendInPlace:
		out, err = engine.PermuteSliceInPlace(data, opt.Procs, eopt)
	case BackendBijective:
		out, err = engine.PermuteSliceBijective(data, opt.Procs, eopt)
	case BackendCluster:
		out, err = engine.PermuteSliceCGM(data, opt.Procs, eopt)
	default:
		var m *pro.Machine
		if out, m, err = core.PermuteSlice(data, opt.Procs, opt.coreConfig()); err != nil {
			return nil, Report{}, err
		}
		return out, reportFrom(m), nil
	}
	if err != nil {
		return nil, Report{}, err
	}
	return out, Report{Procs: opt.Procs}, nil
}

// engineOptions maps opt onto the engine backends' options, with an
// optional cancellation channel threaded into their worker pools: a
// closed channel makes the engine stop claiming tasks and return
// engine.ErrCanceled, which the stream layer maps back onto the
// caller's context error.
func (o Options) engineOptions(cancel <-chan struct{}) engine.Options {
	return engine.Options{
		Workers: o.Parallelism,
		Seed:    o.Seed,
		Rounds:  o.Rounds,
		Cancel:  cancel,
	}
}

// coreConfig maps opt onto the simulated machine's configuration.
func (o Options) coreConfig() core.Config {
	return core.Config{Seed: o.Seed, Matrix: o.Matrix.internal()}
}

// ParallelShuffleBlocks is the general form of Problem 1: the input
// arrives as one block per processor and the output is redistributed
// into blocks of the given target sizes (which must total the same
// number of items). Every global permutation of the items is equally
// likely.
func ParallelShuffleBlocks[T any](blocks [][]T, targetSizes []int64, opt Options) ([][]T, Report, error) {
	opt = opt.withDefaults()
	eopt := opt.engineOptions(nil)
	var out [][]T
	var err error
	switch opt.Backend {
	case BackendSharedMem, BackendCluster:
		// On BackendCluster the blocked form IS the cluster
		// decomposition: prescribed margins, exact matrix, per-block
		// streams — identical to the shared-memory scatter.
		out, err = engine.PermuteBlocks(blocks, targetSizes, eopt)
	case BackendInPlace:
		out, err = engine.PermuteBlocksInPlace(blocks, targetSizes, eopt)
	case BackendBijective:
		out, err = engine.PermuteBlocksBijective(blocks, targetSizes, eopt)
	default:
		var m *pro.Machine
		if out, m, err = core.Permute(blocks, targetSizes, opt.coreConfig()); err != nil {
			return nil, Report{}, err
		}
		return out, reportFrom(m), nil
	}
	if err != nil {
		return nil, Report{}, err
	}
	return out, Report{Procs: len(blocks)}, nil
}

// EvenBlocks returns n split into p block sizes as evenly as possible,
// the layout the paper's symmetric algorithms assume.
func EvenBlocks(n int64, p int) []int64 {
	return core.EvenBlocks(n, p)
}
