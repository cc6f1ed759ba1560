// Package randperm generates uniform random permutations of large data
// sets, sequentially and on a simulated coarse grained parallel machine,
// implementing Jens Gustedt's "Randomized Permutations in a Coarse
// Grained Parallel Environment" (INRIA RR-4639, 2002 / SPAA 2003).
//
// The paper's problem: a vector of n items lives in blocks on p
// processors; rearrange the items into prescribed target blocks so that
// every one of the n! permutations is equally likely (uniformity), with
// O(n) total work including random number generation and communication
// (work-optimality), and with no processor ever holding more than its
// block's worth of data (balance). Previous methods achieved at most two
// of the three.
//
// The solution separates concerns: first sample the p x p communication
// matrix A - whose entry a_ij says how many items block i sends to block
// j - from its exact distribution (a matrix generalization of the
// multivariate hypergeometric law), then route a_ij arbitrarily chosen
// items per processor pair and shuffle locally on both sides.
//
// The package exposes four layers:
//
//   - Sequential shuffling: Shuffle (Fisher-Yates), BlockShuffle (the
//     paper's cache-friendly outlook idea), Perm.
//   - Exact distribution sampling: Hypergeometric, MultivariateHypergeometric,
//     CommMatrix with its exact probability CommMatrixLogProb.
//   - Parallel shuffling: ParallelShuffle and ParallelShuffleBlocks run
//     the paper's Algorithm 1 on one of five interchangeable backends
//     (Options.Backend). BackendSim, the default, simulates the coarse
//     grained machine with goroutine "processors", with the
//     communication matrix sampled by Algorithm 3 at the root
//     (MatrixSeq), Algorithm 5 (MatrixLog, Theta(p log p) per processor)
//     or the cost-optimal Algorithm 6 (MatrixOpt, Theta(p) per
//     processor); a Report of per-processor work, communication volume
//     and random draws accompanies every run, making the paper's
//     resource bounds observable. BackendSharedMem executes the same
//     four phases directly on shared memory - the matrix sampled once,
//     its prefix sums turned into disjoint write offsets, items
//     scattered straight into the output by a goroutine worker pool -
//     trading the accounting for raw speed. BackendInPlace dispenses
//     with the matrix altogether: following the MergeShuffle algorithm
//     of Bacher, Bodini, Hollender and Lumbroso ("MergeShuffle: A Very
//     Fast, Parallel Random Permutation Algorithm", arXiv:1508.03167;
//     engineered for shared memory by Penschuck, arXiv:2302.03317) it
//     Fisher-Yates shuffles 2^k blocks concurrently and merges adjacent
//     runs pairwise with one random bit per placed item, touching no
//     per-item auxiliary memory. BackendBijective computes the
//     permutation instead of constructing it - a keyed variable-round
//     Feistel bijection with cycle-walking, after the bijective-function
//     designs of bandwidth-optimal GPU shuffling (Mitchell et al.,
//     arXiv:2106.06161) - in O(1) state per index; it is the one
//     backend that is not exactly uniform over S_n (a 2^64-key family
//     with uniform marginals; gate with Backend.ExactUniform).
//     BackendCluster runs the blocked decomposition - even blocks,
//     exact fixed-margin matrix - whose geometry survives a network
//     boundary: an N-node permd cluster (internal/cluster) computes
//     the identical bytes cooperatively, each node owning a shard.
//     Options.Parallelism caps the worker pool of the non-sim
//     backends; see ARCHITECTURE.md for the full layer map, the
//     choosing-a-backend decision table and the per-backend
//     determinism contract.
//   - Streaming: NewPermuter returns a Permuter, a reusable handle on
//     one fixed permutation of [0, n) that is pulled on demand - Chunk
//     fills a caller-owned page, Iter ranges over the whole order, At
//     answers point queries, Reset re-keys - instead of materialized in
//     one slice. On BackendBijective the handle holds O(1) state and
//     Chunk allocates nothing, so n may exceed memory (the suite
//     streams chunks of an n = 2^40 permutation); on the materializing
//     backends the handle builds the permutation lazily once and
//     replays it with buffer reuse.
//
// All randomness flows from a single seed through per-block
// jump-separated xoshiro256++ streams (never bound to OS workers), so
// every result in this package is deterministic and reproducible, and
// the shared-memory backends are additionally independent of the worker
// count; the bijective backend is a pure function of (Seed, n).
//
// Above the package sits the permd daemon (cmd/permd, backed by
// internal/service): the same machinery as a long-running HTTP service
// with a single-flight LRU of Permuter handles, streamed chunk
// responses and Prometheus metrics — deployable standalone or as an
// N-node cluster in which each daemon owns one shard of the permuted
// domain and serves the rest by routing (internal/cluster). A
// Permuter reads either from the keyed bijection or from the lazily
// built buffer of a materializing backend; the Materialize,
// Materialized and OnMaterialize methods expose that one re-armable
// build to handle-reusing callers such as the daemon's cache. See
// the service layer and cluster layer
// sections of ARCHITECTURE.md, the operator guide in README.md, and
// the deployment runbook in OPERATIONS.md.
package randperm
