package cluster

import (
	"fmt"
	"sync"
)

// Permuter is a handle on the cluster permutation of (seed, n): the
// same bytes engine.PermuteSliceCGM computes in one process, served
// shard by shard across the cluster. It implements the randperm
// ChunkSource contract, so the public streaming API (and the permd
// chunk endpoint behind it) can sit directly on top: a Chunk request is
// split at shard-slot boundaries, spans of slots this node replicates
// are copied from local shards, and every remote span is read from the
// slot's replica set — health-ranked, hedged after the latency budget,
// failing over on error. Routing happens exactly once — peers only
// ever serve slots they replicate — so no request can loop.
type Permuter struct {
	nd   *Node
	n    int64
	seed uint64
}

// Permuter returns a handle on the (seed, n) cluster permutation. The
// call is free; local shards are assembled lazily on first access (or
// eagerly via Materialize), and remote spans are fetched per request.
func (nd *Node) Permuter(n int64, seed uint64) *Permuter {
	return &Permuter{nd: nd, n: n, seed: seed}
}

// Len returns the domain size n.
func (p *Permuter) Len() int64 { return p.n }

// Chunk fills dst with π(start) .. π(start+len(dst)-1), clamped to the
// domain end, and returns how many values were written. Spans of slots
// this node replicates come from local shards; the rest are read from
// live replicas over HTTP. The spans are read concurrently, one
// goroutine per slot span, so building a local shard overlaps the
// peers' builds of theirs. The error is nil exactly when every span
// was served; otherwise it is the error of the lowest-numbered failed
// slot, whatever order the spans finished in, and dst may hold the
// spans that succeeded — callers that promise atomicity (the permd
// chunk endpoint does) must buffer before exposing bytes.
func (p *Permuter) Chunk(dst []int64, start int64) (int, error) {
	if start < 0 || start > p.n {
		return 0, fmt.Errorf("cluster: Chunk start %d outside [0, %d]", start, p.n)
	}
	m := int64(len(dst))
	if rest := p.n - start; rest < m {
		m = rest
	}
	nd := p.nd
	var spans []int64 // span boundaries: span s is [spans[s], spans[s+1])
	for pos := start; pos < start+m; {
		spans = append(spans, pos)
		_, hi := nd.ShardRange(p.n, nd.Owner(p.n, pos))
		pos = min(hi, start+m)
	}
	spans = append(spans, start+m)
	read := func(s int) error {
		lo, hi := spans[s], spans[s+1]
		span := dst[lo-start : hi-start]
		k := nd.Owner(p.n, lo)
		if !nd.hasDuty(nd.cfg.Self, k) {
			return nd.readRemoteSpan(k, p.n, p.seed, span, lo)
		}
		sh, err := nd.shard(k, p.n, p.seed)
		if err != nil {
			return err
		}
		copy(span, sh.Vals[lo-sh.Start:])
		return nil
	}
	errs := make([]error, len(spans)-1)
	if len(errs) == 1 {
		errs[0] = read(0)
	} else {
		var wg sync.WaitGroup
		for s := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[s] = read(s)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return int(m), nil
}

// Materialize assembles every shard this node replicates now (running
// the exchange rounds with the needed peers) instead of on first
// access, and reports the first error. With Replicas = R that is R
// shards — a warm replica can serve any slot it owns the moment its
// primary dies. Remote slots outside this node's duty are their
// owners' to build.
func (p *Permuter) Materialize() error {
	if p.n == 0 {
		return nil
	}
	for _, slot := range p.nd.duties(p.nd.cfg.Self) {
		if _, err := p.nd.shard(slot, p.n, p.seed); err != nil {
			return err
		}
	}
	return nil
}

// Materialized reports whether every shard this node replicates is
// resident for this permutation.
func (p *Permuter) Materialized() bool {
	for _, slot := range p.nd.duties(p.nd.cfg.Self) {
		if !p.nd.shardResident(slot, p.n, p.seed) {
			return false
		}
	}
	return true
}
