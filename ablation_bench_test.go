// ablation_bench_test.go measures the design choices inside the
// engines: the hypergeometric sampler split (chop-down vs HRUA across
// the parameter spread), the block shuffle's fanout and leaf threshold,
// the multivariate sampler arrangement (iterative vs recursive), and
// the all-to-all exchange granularity.
package randperm_test

import (
	"fmt"
	"testing"

	"randperm/internal/commat"
	"randperm/internal/core"
	"randperm/internal/hyper"
	"randperm/internal/mhyper"
	"randperm/internal/pro"
	"randperm/internal/seqperm"
	"randperm/internal/xrand"
)

// BenchmarkAblationHyperSampler pits the two exact samplers against each
// other across the spread regime, bracketing the sd<=64 switch.
func BenchmarkAblationHyperSampler(b *testing.B) {
	cases := []struct {
		name    string
		t, w, p int64
	}{
		{"sd~5", 100, 300, 500},
		{"sd~22", 2000, 6000, 10000},
		{"sd~70", 20000, 60000, 100000},
		{"sd~220", 200000, 600000, 1000000},
		{"sd~2200", 20000000, 60000000, 100000000},
	}
	for _, c := range cases {
		b.Run("chop/"+c.name, func(b *testing.B) {
			src := xrand.NewXoshiro256(1)
			for i := 0; i < b.N; i++ {
				hyper.SampleChop(src, c.t, c.w, c.p)
			}
		})
		b.Run("hrua/"+c.name, func(b *testing.B) {
			src := xrand.NewXoshiro256(1)
			for i := 0; i < b.N; i++ {
				hyper.SampleHRUA(src, c.t, c.w, c.p)
			}
		})
	}
}

// BenchmarkAblationBlockShuffleFanout sweeps the bucket fanout of the
// cache-friendly shuffle at a fixed out-of-cache size.
func BenchmarkAblationBlockShuffleFanout(b *testing.B) {
	const n = 1 << 22
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	for _, fanout := range []int{8, 32, 64, 128, 512} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			src := xrand.NewXoshiro256(2)
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				seqperm.BlockShuffle(src, data, seqperm.BlockShuffleOptions{Fanout: fanout})
			}
		})
	}
}

// BenchmarkAblationBlockShuffleThreshold sweeps the leaf size at which
// the block shuffle falls back to Fisher-Yates.
func BenchmarkAblationBlockShuffleThreshold(b *testing.B) {
	const n = 1 << 22
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	for _, thr := range []int{1 << 12, 1 << 15, 1 << 18} {
		b.Run(fmt.Sprintf("leaf=%d", thr), func(b *testing.B) {
			src := xrand.NewXoshiro256(3)
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				seqperm.BlockShuffle(src, data, seqperm.BlockShuffleOptions{Threshold: thr})
			}
		})
	}
}

// BenchmarkAblationMultivariate compares the iterative (Algorithm 2) and
// recursive conditioning chains for the multivariate hypergeometric.
func BenchmarkAblationMultivariate(b *testing.B) {
	for _, p := range []int{16, 128, 1024} {
		classes := make([]int64, p)
		for i := range classes {
			classes[i] = 1 << 14
		}
		tt := mhyper.Sum(classes) / 2
		b.Run(fmt.Sprintf("iter/p=%d", p), func(b *testing.B) {
			src := xrand.NewXoshiro256(4)
			out := make([]int64, p)
			for i := 0; i < b.N; i++ {
				mhyper.SampleInto(src, tt, classes, out)
			}
		})
		b.Run(fmt.Sprintf("rec/p=%d", p), func(b *testing.B) {
			src := xrand.NewXoshiro256(4)
			for i := 0; i < b.N; i++ {
				mhyper.SampleRec(src, tt, classes)
			}
		})
	}
}

// BenchmarkAblationMatrixAlg compares all three matrix strategies inside
// the full Algorithm 1 pipeline, isolating the matrix term from the
// (identical) shuffle and exchange phases.
func BenchmarkAblationMatrixAlg(b *testing.B) {
	const n = 1 << 19
	const p = 32
	sizes := core.EvenBlocks(n, p)
	for _, alg := range []core.MatrixAlg{core.MatrixSeq, core.MatrixLog, core.MatrixOpt} {
		b.Run(alg.String(), func(b *testing.B) {
			b.SetBytes(8 * n)
			for i := 0; i < b.N; i++ {
				blocks, _ := core.Split(core.Iota(n), sizes)
				if _, _, err := core.Permute(blocks, sizes, core.Config{
					Seed: uint64(i), Matrix: alg,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationExchangeGranularity measures the all-to-all with the
// same volume split into different message counts per pair.
func BenchmarkAblationExchangeGranularity(b *testing.B) {
	const p = 8
	const perPair = 1 << 12 // int64s from each proc to each proc
	for _, chunks := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			m := pro.NewMachine(p)
			payload := make([]int64, perPair/chunks)
			err := m.Run(func(pr *pro.Proc) {
				for i := 0; i < b.N; i++ {
					for c := 0; c < chunks; c++ {
						for dst := 0; dst < p; dst++ {
							pr.Send(dst, payload)
						}
						for src := 0; src < p; src++ {
							pr.Recv(src)
						}
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAblationSeqMatrixSamplers compares Algorithm 3 with the
// recursive Algorithm 4 across margin counts.
func BenchmarkAblationSeqMatrixSamplers(b *testing.B) {
	for _, p := range []int{16, 64, 256} {
		margins := core.EvenBlocks(int64(p)*(1<<12), p)
		b.Run(fmt.Sprintf("alg3/p=%d", p), func(b *testing.B) {
			src := xrand.NewXoshiro256(5)
			for i := 0; i < b.N; i++ {
				commat.SampleSeq(src, margins, margins)
			}
		})
		b.Run(fmt.Sprintf("alg4/p=%d", p), func(b *testing.B) {
			src := xrand.NewXoshiro256(5)
			for i := 0; i < b.N; i++ {
				commat.SampleRec(src, margins, margins)
			}
		})
	}
}
