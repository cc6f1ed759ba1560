package cluster

import (
	"context"
	"fmt"
	"sync"
)

// Permuter is a handle on the cluster permutation of (seed, n): the
// same bytes engine.PermuteSliceCGM computes in one process, served
// shard by shard across the cluster. It is the handle the permd
// service caches for backend=cluster, and its Chunk follows the
// randperm.Permuter.Chunk contract: a Chunk request is split at
// shard-slot boundaries, spans of slots this node replicates
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
// eagerly via MaterializeContext), and remote spans are fetched per
// request.
func (nd *Node) Permuter(n int64, seed uint64) *Permuter {
	return &Permuter{nd: nd, n: n, seed: seed}
}

// Len returns the domain size n.
func (p *Permuter) Len() int64 { return p.n }

// Chunk fills dst with π(start) .. π(start+len(dst)-1), clamped to the
// domain end, and returns how many values were written. Spans of slots
// this node replicates come from local shards; the rest are read from
// live replicas over HTTP. The spans are read concurrently — every
// remote span is in flight before the first local one is read — so
// building a local shard overlaps the peers' builds of theirs. Chunk
// is StartRead followed by Finish. The error is nil exactly when every
// span was served; otherwise it is the error of the lowest-numbered
// failed slot, whatever order the spans finished in, and dst may hold
// the spans that succeeded and part of a failed one — callers that
// promise atomicity (the permd chunk endpoint does) must buffer before
// exposing bytes.
func (p *Permuter) Chunk(dst []int64, start int64) (int, error) {
	return p.StartRead(context.Background(), dst, start).Finish()
}

// A Read is a Chunk split in two, for callers that gate local shard
// builds: StartRead fires every remote span at once, and Finish reads
// the local spans — building any local shard that is not resident —
// then waits for the remote ones. A caller that builds this node's
// shards under its own admission control starts the Read when its
// build is admitted and finishes it when the build is done, so the
// local build overlaps the peers' builds of theirs without the remote
// reads waiting on it. Every Read must end in exactly one Finish or
// Abandon; both return only after every goroutine the Read started
// has returned.
type Read struct {
	p      *Permuter
	dst    []int64
	start  int64
	spans  []int64 // span boundaries: span s is [spans[s], spans[s+1])
	errs   []error // per span; valid once wg is done
	err    error   // a bad start, reported by Finish
	wg     sync.WaitGroup
	cancel context.CancelFunc
}

// StartRead begins reading π(start) .. π(start+len(dst)-1), clamped to
// the domain end, into dst: each remote span is fetched now, in its own
// goroutine under ctx, so canceling ctx (or calling Abandon) stops the
// peer reads. Local spans are left for Finish.
func (p *Permuter) StartRead(ctx context.Context, dst []int64, start int64) *Read {
	rd := &Read{p: p, start: start}
	ctx, rd.cancel = context.WithCancel(ctx)
	if start < 0 || start > p.n {
		rd.err = fmt.Errorf("cluster: Chunk start %d outside [0, %d]", start, p.n)
		return rd
	}
	rd.dst = dst[:min(int64(len(dst)), p.n-start)]
	end := start + int64(len(rd.dst))
	for pos := start; pos < end; {
		rd.spans = append(rd.spans, pos)
		_, hi := p.nd.ShardRange(p.n, p.nd.Owner(p.n, pos))
		pos = min(hi, end)
	}
	rd.spans = append(rd.spans, end)
	rd.errs = make([]error, len(rd.spans)-1)
	for s := range rd.errs {
		if k, span, lo := rd.span(s); !rd.local(k) {
			rd.wg.Add(1)
			go func() {
				defer rd.wg.Done()
				rd.errs[s] = p.nd.readRemoteSpan(ctx, k, p.n, p.seed, span, lo)
			}()
		}
	}
	return rd
}

// span returns span s's shard slot, its window of dst and its first
// index.
func (rd *Read) span(s int) (slot int, span []int64, lo int64) {
	lo = rd.spans[s]
	return rd.p.nd.Owner(rd.p.n, lo), rd.dst[lo-rd.start : rd.spans[s+1]-rd.start], lo
}

// local reports whether this node replicates slot, so its span is read
// from a local shard.
func (rd *Read) local(slot int) bool { return rd.p.nd.hasDuty(rd.p.nd.cfg.Self, slot) }

// Finish reads the local spans — concurrently when there are several,
// each building its shard if it is not resident — waits for the remote
// spans, and returns how many values were written. The error follows
// Chunk's rule: that of the lowest-numbered failed slot.
func (rd *Read) Finish() (int, error) {
	defer rd.cancel()
	if rd.err != nil {
		return 0, rd.err
	}
	var local []int
	for s := range rd.errs {
		if k, _, _ := rd.span(s); rd.local(k) {
			local = append(local, s)
		}
	}
	read := func(s int) {
		k, span, lo := rd.span(s)
		sh, err := rd.p.nd.shard(k, rd.p.n, rd.p.seed)
		if err != nil {
			rd.errs[s] = err
			return
		}
		copy(span, sh.Vals[lo-sh.Start:])
	}
	for i, s := range local {
		if i == len(local)-1 {
			read(s) // the last one on this goroutine
			break
		}
		rd.wg.Add(1)
		go func() {
			defer rd.wg.Done()
			read(s)
		}()
	}
	rd.wg.Wait()
	for _, err := range rd.errs {
		if err != nil {
			return 0, err
		}
	}
	return len(rd.dst), nil
}

// Abandon stops a Read that will not be finished: it cancels the
// remote spans and waits for their goroutines. The local spans are
// never read, so no local shard is built on its behalf.
func (rd *Read) Abandon() {
	rd.cancel()
	rd.wg.Wait()
}

// MaterializeContext assembles every shard this node replicates now
// (running the exchange rounds with the needed peers) instead of on
// first access, and reports the first error. With Replicas = R that is
// R shards — a warm replica can serve any slot it owns the moment its
// primary dies. Remote slots outside this node's duty are their
// owners' to build. A shard build is shared by every reader of the
// shard, so ctx does not cancel it.
func (p *Permuter) MaterializeContext(context.Context) error {
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
// resident for this permutation. The empty domain has nothing to
// build, so it is always materialized.
func (p *Permuter) Materialized() bool {
	if p.n == 0 {
		return true
	}
	for _, slot := range p.nd.duties(p.nd.cfg.Self) {
		if !p.nd.shardResident(slot, p.n, p.seed) {
			return false
		}
	}
	return true
}
