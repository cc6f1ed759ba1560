// materialize_test.go holds the materializing backends' lazy build to
// its definition: a Permuter serves exactly ParallelShuffle of the
// identity, however the build stores it, and a canceled build leaves
// the handle as if it had never run.
package randperm_test

import (
	"context"
	"errors"
	"testing"

	"randperm"
)

var materializingBackends = []randperm.Backend{
	randperm.BackendSim,
	randperm.BackendSharedMem,
	randperm.BackendInPlace,
	randperm.BackendCluster,
}

// TestPermuterBuildMatchesIdentityShuffle: Chunk over the full range
// must equal ParallelShuffle of an []int64 identity for every
// materializing backend, across the decomposition-width edges, the
// scatter cutoff (73728 items still take the small-input path, 73729
// scatter) and a multi-bucket n.
func TestPermuterBuildMatchesIdentityShuffle(t *testing.T) {
	seeds := []uint64{1, 0xfeed, 1<<63 + 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, backend := range materializingBackends {
		for _, p := range []int{1, 3, 8, 16} {
			for _, n := range []int64{0, 1, 2, int64(p) - 1, int64(p), 2 * int64(p), 73728, 73729, 300000} {
				for _, seed := range seeds {
					opt := randperm.Options{Procs: p, Seed: seed, Backend: backend}
					want, _, err := randperm.ParallelShuffle(iotaInt64(int(n)), opt)
					if err != nil {
						t.Fatal(err)
					}
					pm, err := randperm.NewPermuter(n, opt)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]int64, n)
					if m, err := pm.Chunk(got, 0); err != nil || int64(m) != n {
						t.Fatalf("%v p=%d n=%d: Chunk = %d, %v", backend, p, n, m, err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%v p=%d n=%d seed=%d: π(%d) = %d, ParallelShuffle says %d",
								backend, p, n, seed, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestMaterializeContextCanceled: a build whose context is already
// canceled must fail with the context's error, leave the handle
// unmaterialized without firing OnMaterialize, and let the next
// Materialize serve the same bytes as an uncanceled handle. n is above
// the scatter cutoff, so every backend runs its worker pool.
func TestMaterializeContextCanceled(t *testing.T) {
	const n = 100000
	for _, backend := range []randperm.Backend{
		randperm.BackendSharedMem, randperm.BackendInPlace, randperm.BackendCluster,
	} {
		t.Run(backend.String(), func(t *testing.T) {
			opt := randperm.Options{Procs: 8, Seed: 31, Backend: backend}
			want, _, err := randperm.ParallelShuffle(iotaInt64(n), opt)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := randperm.NewPermuter(n, opt)
			if err != nil {
				t.Fatal(err)
			}
			builds := 0
			pm.OnMaterialize(func() { builds++ })

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := pm.MaterializeContext(ctx); !errors.Is(err, ctx.Err()) {
				t.Fatalf("MaterializeContext = %v, want %v", err, ctx.Err())
			}
			if pm.Materialized() || builds != 0 {
				t.Fatalf("canceled build: Materialized=%v, hook fired %d times", pm.Materialized(), builds)
			}

			if err := pm.Materialize(); err != nil {
				t.Fatal(err)
			}
			if !pm.Materialized() || builds != 1 {
				t.Fatalf("rebuild: Materialized=%v, hook fired %d times", pm.Materialized(), builds)
			}
			got := make([]int64, n)
			if _, err := pm.Chunk(got, 0); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("rebuilt handle diverges at %d: %d != %d", i, got[i], want[i])
				}
			}
		})
	}
}
