package service

import (
	"context"

	"randperm"
)

// handleKey identifies one permutation the daemon can serve. Procs is
// deliberately absent: the server pins one decomposition width at
// construction (Config.Procs), so over HTTP a chunk is fully determined
// by (n, seed, backend) — the determinism contract ARCHITECTURE.md
// states for the service layer.
type handleKey struct {
	n       int64
	seed    uint64
	backend randperm.Backend
}

// handle is what a cache entry serves from: a *randperm.Permuter, or
// in cluster mode a *cluster.Permuter for backend=cluster, which reads
// this node's shards locally and the rest of the domain from the owning
// peers instead of materializing all n words here.
type handle interface {
	Chunk(dst []int64, start int64) (int, error)
	Materialized() bool
	MaterializeContext(ctx context.Context) error
}

// handleEntry is one value of the server's handle cache, an
// lru.Cache keyed by (n, seed, backend): every request that resolves
// the same key shares one entry, built once. The handle in turn holds
// its own once-guarded lazy materialization, so 1000 concurrent first
// requests for one permutation cost one n-word build, not 1000.
type handleEntry struct {
	key handleKey
	pm  handle
	// gate serializes and bounds the handle's lazy materialization (see
	// admission.go): handle *construction* is cheap and runs as the
	// cache's build, but the n-word build a materializing handle defers
	// is admitted through the server's build semaphore and canceled
	// when every waiting client disconnects.
	gate buildGate
}
