package cluster

import (
	"sync/atomic"

	"randperm/internal/core"
	"randperm/internal/engine"
)

// routed is round 2 for one source slot of one permutation, done once
// per node: each of the slot's source blocks is drawn (CGM.LabelsInto)
// and routed (engine.RouteIota) into CGM.Exchange(0, p) layout — its
// segments for every target block back to back, in target order, with
// no sink. The local shard build copies its segments out of it, and
// every exchange leg a peer asks for is encoded from it, so a source
// block's labels are drawn once per permutation however many target
// slots take from it.
//
// An entry lives in Node.routes. It is removed once every target slot
// has taken its segments (see take); an entry some target never takes
// from this node — a replica's, when R >= 2 — ages out of that LRU. A
// missing entry is routed again with the same bytes.
type routed struct {
	key   shardKey         // key.slot is the source slot
	ex    *engine.Window   // CGM.Exchange(0, p): source block i's segments in its page
	first int              // the slot's first source block
	off   []int64          // block i's page is vals[off[i-first]:off[i-first+1]]
	vals  engine.Positions // PosSlice[T] of routeSlot[T]

	taken []atomic.Bool // taken[to]: target slot `to` has its segments
	left  atomic.Int32  // target slots yet to take
}

// route returns the entry for source slot `slot` of (seed, n), stored
// by engine.ByWidth(n) like a shard, routing it on a miss; racing
// callers share one routing. cgm, when non-nil, is the caller's round 1
// for (seed, n), which spares the entry sampling its own matrix.
func (nd *Node) route(slot int, n int64, seed uint64, cgm *engine.CGM) *routed {
	key := shardKey{slot: slot, n: n, seed: seed}
	rt, _, _ := nd.routes.Get(key, func() (*routed, error) {
		return engine.ByWidth(n, routeSlot[int32], routeSlot[int64])(nd, slot, n, seed, cgm), nil
	})
	return rt
}

// routeSlot routes source slot `slot` of (seed, n) into a new entry
// stored as T, sampling the matrix when cgm is nil.
func routeSlot[T int32 | int64](nd *Node, slot int, n int64, seed uint64, cgm *engine.CGM) *routed {
	p, nodes := nd.cfg.Procs, len(nd.cfg.Peers)
	if cgm == nil {
		sizes := core.EvenBlocks(n, p)
		cgm = engine.NewCGM(seed, sizes, sizes)
	}
	lo, hi := blockSpan(p, nodes, slot)
	rt := &routed{
		key:   shardKey{slot: slot, n: n, seed: seed},
		ex:    cgm.Exchange(0, p),
		first: lo,
		off:   make([]int64, hi-lo+1),
		taken: make([]atomic.Bool, nodes),
	}
	for i := lo; i < hi; i++ {
		rt.off[i-lo+1] = rt.off[i-lo] + rt.ex.Len(i)
	}
	vals := make(engine.PosSlice[T], rt.off[hi-lo])
	var labels []int32
	for i := lo; i < hi; i++ {
		labels = cgm.LabelsInto(labels, i)
		engine.RouteIota(rt.ex, i, labels, vals[rt.off[i-lo]:rt.off[i-lo+1]])
		nd.routedBlocks.Add(1)
	}
	rt.vals = vals
	rt.left.Store(int32(nodes))
	return rt
}

// segment returns where segment (i, j) of the entry — the values
// source block i sends target block j, in source order — lies in vals.
func (rt *routed) segment(i, j int) (lo, hi int64) {
	lo, hi = rt.ex.Segment(i, j)
	at := rt.off[i-rt.first]
	return at + lo, at + hi
}

// take records that target slot `to` has its segments of rt; once every
// target slot has, the entry leaves the cache. A caller still holding
// it keeps reading it, and a later need routes it again.
func (nd *Node) take(rt *routed, to int) {
	if !rt.taken[to].Swap(true) && rt.left.Add(-1) == 0 {
		nd.routes.Remove(rt.key)
	}
}
