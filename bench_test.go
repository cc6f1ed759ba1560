// bench_test.go wires the paper's evaluation (experiments E1..E8 of the
// internal/harness catalogue, see `permbench -list`) into testing.B,
// one benchmark per experiment, plus the micro-benchmarks behind them;
// E9's benchmark lives next to its substrate
// (extmem.BenchmarkExternalShuffle) and E10 is a deterministic
// cost-model table with nothing to time. The permbench command produces
// the full paper-style tables; these benchmarks make the same workloads
// repeatable under `go test -bench`.
package randperm_test

import (
	"fmt"
	"testing"

	"randperm"
	"randperm/internal/commat"
	"randperm/internal/core"
	"randperm/internal/xrand"
)

// BenchmarkE1SeqShuffle measures the sequential reference algorithm's
// cost per item (paper: 60-100 cycles/item, memory bound).
func BenchmarkE1SeqShuffle(b *testing.B) {
	for _, n := range []int{1 << 20, 1 << 23} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := randperm.NewSource(1)
			data := make([]int64, n)
			for i := range data {
				data[i] = int64(i)
			}
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				randperm.Shuffle(src, data)
			}
		})
	}
}

// BenchmarkE2HyperDraws measures hypergeometric sampling cost at the
// paper's large-parameter regime (the draws-per-sample table comes from
// permbench -exp E2).
func BenchmarkE2HyperDraws(b *testing.B) {
	cases := []struct{ t, w, bl int64 }{
		{100, 1000, 1000},
		{1000000, 10000000, 10000000},
		{100000000, 1000000000, 1000000000},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("t=%d", c.t), func(b *testing.B) {
			src := randperm.NewSource(2)
			for i := 0; i < b.N; i++ {
				randperm.Hypergeometric(src, c.t, c.w, c.bl)
			}
		})
	}
}

// BenchmarkE3Scaling is the paper's Section 6 headline series: Algorithm
// 1 across machine sizes (the table with the Origin 2000 comparison comes
// from permbench -exp E3).
func BenchmarkE3Scaling(b *testing.B) {
	const n = 1 << 21
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	for _, p := range []int{1, 3, 6, 12, 24, 48} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			if p == 1 {
				src := randperm.NewSource(3)
				b.SetBytes(8 * n)
				for i := 0; i < b.N; i++ {
					randperm.Shuffle(src, data)
				}
				return
			}
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				_, _, err := randperm.ParallelShuffle(data, randperm.Options{
					Procs: p, Seed: uint64(i), Matrix: randperm.MatrixOpt,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackends races the four execution backends on the same
// workload (the acceptance workload of the backend refactor: n=2^20,
// p=8). The Sim backend pays for mailboxes, `any` boxing and draw
// accounting; SharedMem scatters through precomputed disjoint offsets;
// InPlace runs the MergeShuffle merge tree with zero per-item auxiliary
// memory; Bijective evaluates a 12-round Feistel network per item (its
// materializing form — the backend exists for streaming, where it is
// the only one that can skip materializing at all).
func BenchmarkBackends(b *testing.B) {
	const n = 1 << 20
	const p = 8
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	backends := []randperm.Backend{
		randperm.BackendSim, randperm.BackendSharedMem,
		randperm.BackendInPlace, randperm.BackendBijective,
	}
	for _, backend := range backends {
		b.Run(backend.String(), func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				_, _, err := randperm.ParallelShuffle(data, randperm.Options{
					Procs: p, Seed: uint64(i), Backend: backend,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPermuterChunk measures the streaming path: pulling one 64Ki
// page of an n=2^40 permutation through Permuter.Chunk on the bijective
// backend — the workload where no other backend can even start, since
// materializing 2^40 indexes is 8 TB. ns/op divided by 65536 is the
// per-index cost of the Feistel evaluation including cycle-walking.
func BenchmarkPermuterChunk(b *testing.B) {
	const page = 1 << 16
	pm, err := randperm.NewPermuter(1<<40, randperm.Options{
		Seed: 9, Backend: randperm.BackendBijective,
	})
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]int64, page)
	b.SetBytes(8 * page)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (int64(i) * page) % (1<<40 - page)
		if _, err := pm.Chunk(dst, start); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterialize measures the build layer of a materialized
// handle: one Permuter build of n = 2^20 positions per op, a fresh seed
// each time, as a handle cache pays it on every miss. B/op is the
// build's whole footprint: the stored permutation plus the engine's
// scratch.
func BenchmarkMaterialize(b *testing.B) {
	const n = 1 << 20
	for _, backend := range []randperm.Backend{
		randperm.BackendSim, randperm.BackendSharedMem,
		randperm.BackendInPlace, randperm.BackendCluster,
	} {
		b.Run(backend.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pm, err := randperm.NewPermuter(n, randperm.Options{
					Procs: 8, Seed: uint64(i), Backend: backend,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := pm.Materialize(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4Matrix covers Theorem 2: the three matrix sampling
// strategies across machine sizes.
func BenchmarkE4Matrix(b *testing.B) {
	for _, p := range []int{16, 64, 128} {
		margins := core.EvenBlocks(int64(p)*(1<<14), p)
		b.Run(fmt.Sprintf("seq/p=%d", p), func(b *testing.B) {
			src := xrand.NewXoshiro256(4)
			for i := 0; i < b.N; i++ {
				commat.SampleSeq(src, margins, margins)
			}
		})
		b.Run(fmt.Sprintf("rec/p=%d", p), func(b *testing.B) {
			src := xrand.NewXoshiro256(4)
			for i := 0; i < b.N; i++ {
				commat.SampleRec(src, margins, margins)
			}
		})
		b.Run(fmt.Sprintf("log/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.SampleRows(p, uint64(i), margins, margins, core.MatrixLog); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("opt/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.SampleRows(p, uint64(i), margins, margins, core.MatrixOpt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5UniformityKernel measures the per-trial cost of the
// exhaustive uniformity experiment (the verdict table comes from
// permbench -exp E5).
func BenchmarkE5UniformityKernel(b *testing.B) {
	sizes := []int64{2, 2, 2}
	for i := 0; i < b.N; i++ {
		blocks, err := core.Split(core.Iota(6), sizes)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.Permute(blocks, sizes, core.Config{
			Seed: uint64(i), Matrix: core.MatrixOpt,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Balance compares Algorithm 1 against the unbalanced/rejection
// baselines at a fixed machine size.
func BenchmarkE6Balance(b *testing.B) {
	const n = 1 << 16
	const p = 16
	sizes := core.EvenBlocks(n, p)
	b.Run("alg1", func(b *testing.B) {
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			blocks, _ := core.Split(core.Iota(n), sizes)
			if _, _, err := core.Permute(blocks, sizes, core.Config{
				Seed: uint64(i), Matrix: core.MatrixOpt,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE7Coarsen measures the self-similarity experiment kernel: one
// matrix sample plus the Proposition 4 coarsening.
func BenchmarkE7Coarsen(b *testing.B) {
	p := 12
	margins := core.EvenBlocks(int64(p)*40, p)
	src := xrand.NewXoshiro256(7)
	for i := 0; i < b.N; i++ {
		m := commat.SampleSeq(src, margins, margins)
		commat.Coarsen(m, []int{5}, []int{7})
	}
}

// BenchmarkE8BlockShuffle is the paper's outlook: the cache-friendly
// sequential shuffle against Fisher-Yates on an out-of-cache vector.
func BenchmarkE8BlockShuffle(b *testing.B) {
	const n = 1 << 23 // 64 MiB of int64: well beyond L3
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	b.Run("fisher-yates", func(b *testing.B) {
		src := randperm.NewSource(8)
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			randperm.Shuffle(src, data)
		}
	})
	b.Run("block", func(b *testing.B) {
		src := randperm.NewSource(8)
		b.SetBytes(8 * n)
		for i := 0; i < b.N; i++ {
			randperm.BlockShuffle(src, data)
		}
	})
}
