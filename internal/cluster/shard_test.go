package cluster

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// TestShardWidthsAgree: the shard build and the exchange server's page
// routing store positions as int32 whenever n fits and as int64 above,
// and no test can build n > 2^31-1. So both run here at both widths
// for the same (seed, n, p, N), and must widen to the same values: the
// shards to the single-process bytes, the exchange legs to the same
// wire bytes.
func TestShardWidthsAgree(t *testing.T) {
	const p, seed = 4, 11
	for _, nodes := range []int{1, 2, 3} {
		nds := bootCluster(t, nodes, p)
		for _, n := range []int64{0, 1, p - 1, 10_000} {
			want := singleNodeCGM(t, n, p, seed)
			for k, nd := range nds {
				narrow, err := buildShard[int32](nd, k, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				wide, err := buildShard[int64](nd, k, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, sh := range []*Shard{narrow, wide} {
					if lo, hi := nd.ShardRange(n, k); sh.Start != lo || sh.End != hi {
						t.Fatalf("N=%d n=%d slot %d: shard [%d, %d), want [%d, %d)", nodes, n, k, sh.Start, sh.End, lo, hi)
					}
					if l := int64(reflect.ValueOf(sh.Positions).Len()); l != sh.End-sh.Start {
						t.Fatalf("N=%d n=%d slot %d, %T store: %d values, want %d", nodes, n, k, sh.Positions, l, sh.End-sh.Start)
					}
					got := make([]int64, sh.End-sh.Start)
					sh.Read(got, 0)
					for i, v := range got {
						if v != want[sh.Start+int64(i)] {
							t.Fatalf("N=%d n=%d slot %d, %T store: π(%d) = %d, want %d",
								nodes, n, k, sh.Positions, sh.Start+int64(i), v, want[sh.Start+int64(i)])
						}
					}
				}
				for to := range nodes {
					leg := exchangeLeg{seed: seed, n: n, p: p, nodes: nodes, from: k, to: to}
					var narrow, wide bytes.Buffer
					shipped32, shipped64 := writeExchange[int32](&narrow, leg), writeExchange[int64](&wide, leg)
					if shipped32 != shipped64 || !bytes.Equal(narrow.Bytes(), wide.Bytes()) {
						t.Fatalf("N=%d n=%d leg %d -> %d: int32 pages shipped %d values in %d bytes, int64 pages %d in %d, or the bytes differ",
							nodes, n, k, to, shipped32, narrow.Len(), shipped64, wide.Len())
					}
				}
			}
		}
	}
}

// TestShardBuildBytes bounds a cold shard build's heap: 4 bytes per
// position for the shard, one block's label arrangement (4 bytes per
// position of a source block, in one buffer round 2 reuses), plus
// fixed slack. An 8-byte shard, or a fresh label slice per source
// block, would each add about 4 bytes per position and break it. A
// one-node cluster builds with no network. As in decodeTestLeg, heap
// statistics are process-wide, so the least of three cold builds
// counts.
func TestShardBuildBytes(t *testing.T) {
	const n, p = 100_000, 8
	nd, err := New(Config{Peers: []string{"http://n0"}, Procs: p})
	if err != nil {
		t.Fatal(err)
	}
	allocated := uint64(math.MaxUint64)
	for seed := range uint64(3) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := nd.shard(0, n, seed+1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(4*n + 4*n/p + 64<<10); allocated > limit {
		t.Errorf("cold shard build allocated %d bytes, bound %d", allocated, limit)
	}
	t.Logf("cold shard build of n=%d: %d bytes (%.2f B/position)", n, allocated, float64(allocated)/n)
}
