package engine

import (
	"fmt"
	"math"
	"testing"
)

// TestFeistelKernelsAgree pins both Chunk kernels, the AVX-512 one and
// the generic Go lane loop, to the scalar Index: over TestBijectionGolden's
// rows, over domains on both sides of 64 and of the 2^60 cutoff of the
// vector kernel, at every round-count parity, and on windows whose
// starts and lengths split the 64-index batches unevenly. The avx512
// half skips on hosts without AVX-512.
func TestFeistelKernelsAgree(t *testing.T) {
	type domain struct {
		n      int64
		rounds int
	}
	var domains []domain
	// n = 64 comes before any domain that walks: a kernel that leaves
	// its images outside the superdomain fails there instead of
	// sending the cycle-walk round forever.
	for _, n := range []int64{2, 63, 64, 65, 1000, 1 << 20, 1_000_000, 1 << 40, 1<<40 + 1, 1 << 60, 1<<60 + 1} {
		for _, rounds := range []int{1, 2, 3, 12, 13} {
			domains = append(domains, domain{n, rounds})
		}
	}
	// TestBijectionGolden's rows.
	for _, n := range []int64{10, 1000, 1 << 40, 1 << 60, 1<<60 + 1, 1<<62 + 3, math.MaxInt64} {
		for _, rounds := range []int{12, 3} {
			domains = append(domains, domain{n, rounds})
		}
	}
	for _, kernel := range []string{"generic", "avx512"} {
		t.Run("kernel="+kernel, func(t *testing.T) {
			vec := kernel == "avx512"
			if vec && !hasAVX512 {
				t.Skip("no AVX-512 on this host: only the generic kernel runs here")
			}
			for _, d := range domains {
				b := NewBijectionRounds(d.n, 0xC0FFEE, d.rounds)
				b.vec = vec && b.pre != nil
				for _, w := range []int64{0, 1, 63, 64, 65, 4113} {
					w = min(w, d.n)
					for _, start := range []int64{0, 1, 37, d.n/2 + 13, d.n - w} {
						start = min(start, d.n-w)
						got := make([]int64, w)
						b.Chunk(got, start)
						for k, v := range got {
							if want := b.Index(start + int64(k)); v != want {
								t.Fatalf("n=%d rounds=%d window [%d, +%d): Chunk[%d] = %d, Index = %d",
									d.n, d.rounds, start, w, start+int64(k), v, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestBijectionChunkRange: a window past the end of the domain panics
// even where start+len(dst) overflows int64, and the last in-range
// window of the widest domain does not.
func TestBijectionChunkRange(t *testing.T) {
	b := NewBijection(math.MaxInt64, 1)
	b.Chunk(make([]int64, 4), math.MaxInt64-4)
	for _, start := range []int64{math.MaxInt64 - 3, math.MaxInt64 - 1, -1} {
		t.Run(fmt.Sprintf("start=%d", start), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("Chunk of 4 at %d over n = MaxInt64 did not panic", start)
				}
			}()
			b.Chunk(make([]int64, 4), start)
		})
	}
}
