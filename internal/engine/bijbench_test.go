package engine

import (
	"fmt"
	"testing"
)

// BenchmarkBijectionChunk measures the batch evaluator alone (no gather,
// no pool): ns/op divided by the chunk length is the per-index Feistel
// cost, per kernel. The sizes pin both walk regimes: 1<<20 and 1<<40
// (the domain permd's chunk-warm workload serves) are superdomain ==
// domain (no cycle-walk), 1e6 walks ~4.6% of lanes.
func BenchmarkBijectionChunk(b *testing.B) {
	for _, kernel := range []string{"generic", "avx512"} {
		for _, n := range []int64{1 << 20, 1_000_000, 1 << 40} {
			b.Run(fmt.Sprintf("kernel=%s/n=%d", kernel, n), func(b *testing.B) {
				benchChunk(b, kernel, NewBijection(n, 42))
			})
		}
	}
}

// BenchmarkBijectionChunkRounds sweeps the Feistel depth at a fixed
// domain, per kernel: the per-index cost is linear in rounds, and this
// sweep is the source of the reduced-round budget table in
// BENCHMARKS.md.
func BenchmarkBijectionChunkRounds(b *testing.B) {
	for _, kernel := range []string{"generic", "avx512"} {
		for _, rounds := range []int{4, 6, 8, 12} {
			b.Run(fmt.Sprintf("kernel=%s/rounds=%d", kernel, rounds), func(b *testing.B) {
				benchChunk(b, kernel, NewBijectionRounds(1_000_000, 42, rounds))
			})
		}
	}
}

// benchChunk times Chunk over 16Ki indices on the named kernel; the
// avx512 level skips on hosts without AVX-512.
func benchChunk(b *testing.B, kernel string, bij *Bijection) {
	if kernel == "avx512" && !bij.vec {
		b.Skip("no AVX-512 on this host")
	}
	bij.vec = kernel == "avx512"
	dst := make([]int64, 1<<14)
	b.SetBytes(int64(len(dst)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bij.Chunk(dst, 0)
	}
}

// BenchmarkBijectionIndex is the serial evaluator, for the speedup ratio.
func BenchmarkBijectionIndex(b *testing.B) {
	bij := NewBijection(1_000_000, 42)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += bij.Index(int64(i) % 1_000_000)
	}
	_ = sink
}
