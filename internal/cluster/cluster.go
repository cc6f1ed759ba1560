// Package cluster realizes the paper's coarse grained model across real
// machine boundaries: N permd peers cooperate to compute the exact
// blocked CGM permutation of internal/engine (PermuteSliceCGM) in the
// paper's O(1) communication rounds, over HTTP, with R-way shard
// replication for fault tolerance.
//
// The decomposition is the engine's (engine.CGM): p even blocks (p =
// Config.Procs, the cluster-wide decomposition width), grouped
// contiguously into N shard slots — slot k is the block range
// blockSpan(p, N, k) and the index range ShardRange(n, k). A node
// builds a slot's shard in three rounds, each a call into that one
// engine type; what the package adds is which source blocks are local
// and which are fetched, the wire, replication and health:
//
//	round 1  every node samples the p x p communication matrix locally
//	         (engine.NewCGM) from the shared seed — no network; the
//	         matrix is a pure function of (seed, n, p), so all nodes
//	         hold identical copies by construction;
//	round 2  the h-relation: every source block's indexes are routed
//	         by its label arrangement (CGM.LabelsInto, engine.RouteIota)
//	         once per permutation, by each duty holder of its slot, into
//	         that node's routed entry for the slot (route.go: exchange
//	         layout over every target, CGM.Exchange(0, p)); the node's
//	         own shard builds copy their segments from it, and every
//	         exchange leg it serves to a peer is encoded from it. Each
//	         received payload segment is verified against the locally
//	         sampled matrix entry it realizes, so a seed or width
//	         mismatch is detected, not silently mixed;
//	round 3  each target block of the slot is arranged in place from
//	         its own stream (engine.Arrange on the engine's worker
//	         pool) — again no network.
//
// Replication rides the same fact that makes the rounds cheap: a shard
// slot's bytes are a pure function of (seed, n, p, slot) — every input
// to the three rounds is derived from the shared seed's jump-separated
// streams, never from which machine runs them. With Config.Replicas =
// R, slot k is owned by the R nodes (k, k+1, … k+R-1 mod N), each of
// which derives identical bytes independently; fault tolerance
// therefore needs no data migration, only re-routing. Reads of a
// remote slot prefer the primary replica, hedge to the next one after
// Config.HedgeAfter, and fail over on error; peer health is tracked
// first-hand and gossiped on the headers of calls the nodes were
// already making (see health.go). A dead peer is survivable exactly
// when R >= 2; with R = 1 the failure surfaces as an error naming the
// peer and the round (see PeerError), never as partial or mixed bytes.
//
// Because every round is the single-process engine's own code on the
// same streams, and only the item movement differs, the assembled
// cluster permutation is byte-identical to PermuteSliceCGM over the
// same (seed, n, p) — regardless of N, R, which replica served which
// span, or how many failures were absorbed along the way. This is the
// network determinism contract stated in ARCHITECTURE.md and enforced
// by the drill tests. Exactness is inherited the same way: the law is
// Algorithm 1 with the exact fixed-margin matrix, uniform over all n!
// permutations.
package cluster

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"randperm/internal/core"
	"randperm/internal/engine"
	"randperm/internal/events"
	"randperm/internal/lru"
	"randperm/internal/metrics"
)

// Config wires one node into a cluster. All nodes must agree on Procs,
// Replicas and on the order (and count) of Peers — the /v1/cluster/join
// handshake verifies exactly this (see Geometry); each node differs
// only in Self. The zero values of the sizing fields get defaults from
// New.
type Config struct {
	// Self is this node's index in Peers.
	Self int
	// Peers lists the base URLs of every node in the cluster, in the
	// cluster-wide node order — Peers[Self] is this node and is never
	// dialed. A single-element Peers is a valid one-node cluster that
	// performs no network traffic at all.
	Peers []string
	// Procs is the cluster-wide decomposition width p: the total block
	// count across all nodes (default 8). It must be at least
	// len(Peers) so every slot owns at least one block, and every node
	// must use the same value — it is part of the permutation's
	// identity, exactly as on a single machine.
	Procs int
	// Replicas is the shard replication factor R (default 1): shard
	// slot k is owned by nodes (k, k+1, … k+R-1) mod len(Peers), each
	// of which derives the slot's bytes independently from the shared
	// streams. R must not exceed the cluster size. R = 1 is the
	// fail-stop mode: any dead peer errors reads that need it. R >= 2
	// survives R-1 dead peers per slot with no byte ever changing.
	Replicas int
	// MaxShards caps the node's shard cache (default 8 * Replicas, so
	// the default working set scales with replica duty). Each resident
	// shard for a size-n domain holds about 4n/len(Peers) bytes.
	MaxShards int
	// MaxN, when positive, bounds the domain size the peer-facing
	// endpoints accept — the cluster-side mirror of the service
	// layer's materialization gate, so an unauthenticated request to
	// /v1/cluster/* cannot trigger an arbitrarily large arrangement or
	// shard build that the public API would have refused. The permd
	// service wires its own -max-n here.
	MaxN int64
	// HedgeAfter is the latency budget a remote read gives the first
	// replica before firing the same request at the next one; first
	// answer wins and the loser is cancelled through its context. The
	// zero value means the 50 ms default; negative disables hedging
	// (reads still fail over on error). Tuning guidance lives in
	// OPERATIONS.md.
	HedgeAfter time.Duration
	// Events, when non-nil, receives the node's operational events:
	// cluster_round per completed build round, hedge/failover outcomes
	// on routed reads, peer_health_change transitions and join_result
	// handshakes. Purely observational — best-effort by the bus
	// contract, and never on the wire path of a byte served.
	Events *events.Bus
}

// Node is one member of the cluster: it computes and caches shards for
// every slot it replicates, serves the /v1/cluster/* endpoints to its
// peers, and hands out Permuter handles that route any index range to
// a live owner.
type Node struct {
	cfg    Config
	client *http.Client
	health *health

	shards *lru.Cache[shardKey, *Shard]
	// routes holds round 2's routed source slots (route.go), at most
	// 2 * Replicas: the R source slots of two permutations at once.
	routes *lru.Cache[shardKey, *routed]
	// routedBlocks counts the source blocks this node has routed.
	routedBlocks atomic.Int64

	// met holds the node's metric families, printed on the permd
	// /metrics page; its counters are also /v1/cluster/status's. The
	// handles below are declared in declareMetrics.
	met                                                metrics.Registry
	exchangeReqs, exchangeItems, chunkReqs, chunkItems *metrics.Value
	proxyReqs, proxyItems, shardBuilds, shardBuildNs   *metrics.Value
	hedgedReqs, hedgeWins, failovers, joinReqs         *metrics.Value
}

// New validates cfg and returns the node. It performs no network I/O:
// peers are only contacted when a shard build, a routed chunk or a Join
// needs them.
func New(cfg Config) (*Node, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: need at least one peer URL")
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: node index %d outside [0, %d)", cfg.Self, len(cfg.Peers))
	}
	if cfg.Procs == 0 {
		cfg.Procs = 8
	}
	if cfg.Procs < len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: decomposition width %d smaller than cluster size %d — every node must own at least one block", cfg.Procs, len(cfg.Peers))
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(cfg.Peers) {
		return nil, fmt.Errorf("cluster: replication factor %d exceeds cluster size %d", cfg.Replicas, len(cfg.Peers))
	}
	if cfg.MaxShards <= 0 {
		cfg.MaxShards = 8 * cfg.Replicas
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 50 * time.Millisecond
	}
	nd := &Node{
		cfg:    cfg,
		client: &http.Client{Timeout: 60 * time.Second},
		health: newHealth(len(cfg.Peers)),
		shards: lru.New[shardKey, *Shard](cfg.MaxShards, nil),
		routes: lru.New[shardKey, *routed](2*cfg.Replicas, nil),
	}
	nd.declareMetrics()
	nd.health.onChange = func(k int, from, to peerState) {
		ev := events.New(events.TypePeerHealthChange)
		ev.Peer = k
		ev.State = to.String()
		ev.Detail = from.String()
		nd.publish(ev)
	}
	return nd, nil
}

// declareMetrics declares the node's families, in the order /metrics
// prints them.
func (nd *Node) declareMetrics() {
	r := &nd.met
	nd.exchangeReqs = r.Counter("permd_cluster_exchange_requests_total", "Round-2 exchange requests served to peers.")
	nd.exchangeItems = r.Counter("permd_cluster_exchange_items_total", "Values shipped to peers in exchange responses.")
	nd.chunkReqs = r.Counter("permd_cluster_chunk_requests_total", "Shard-local chunk requests served to peers.")
	nd.chunkItems = r.Counter("permd_cluster_chunk_items_total", "Values served to peers from local shards.")
	nd.proxyReqs = r.Counter("permd_cluster_proxied_requests_total", "Chunk requests this node sent to owning peers.")
	nd.proxyItems = r.Counter("permd_cluster_proxied_items_total", "Values fetched from owning peers.")
	nd.shardBuilds = r.Counter("permd_cluster_shard_builds_total", "Shards assembled through the three exchange rounds.")
	nd.shardBuildNs = r.Counter("permd_cluster_shard_build_ns_total", "Wall nanoseconds spent assembling shards.")
	nd.hedgedReqs = r.Counter("permd_cluster_hedged_requests_total", "Secondary replica reads fired by the hedge timer.")
	nd.hedgeWins = r.Counter("permd_cluster_hedge_wins_total", "Hedged replica reads that answered first.")
	nd.failovers = r.Counter("permd_cluster_failovers_total", "Replica requests fired because an earlier replica failed.")
	nd.joinReqs = r.Counter("permd_cluster_join_requests_total", "Join handshakes served to peers.")
	r.LabeledGaugeFunc("permd_cluster_peer_health", "Peer health as observed by this node (0 healthy, 1 suspect, 2 down).", "peer",
		func(emit func(string, int64)) {
			for k, s := range nd.health.snapshot() {
				if k != nd.cfg.Self {
					emit(strconv.Itoa(k), int64(s))
				}
			}
		})
}

// Metrics returns the node's metric families; permd writes them on its
// /metrics page after its own.
func (nd *Node) Metrics() *metrics.Registry { return &nd.met }

// publish offers ev to the configured event bus, if any. Safe on a
// node without one — the drills and library users run bus-less.
func (nd *Node) publish(ev events.Event) {
	if nd.cfg.Events != nil {
		nd.cfg.Events.Publish(ev)
	}
}

// publishRound reports one completed (or failed) build round for slot's
// shard of the (seed, n) permutation.
func (nd *Node) publishRound(slot, round int, n int64, seed uint64, d time.Duration, detail string) {
	ev := events.New(events.TypeClusterRound)
	ev.Peer = nd.cfg.Self
	ev.Slot = slot
	ev.Round = round
	ev.N = n
	ev.Seed = seed
	ev.Ns = d.Nanoseconds()
	ev.Detail = detail
	nd.publish(ev)
}

// Self returns this node's index; Nodes the cluster size; Procs the
// cluster-wide decomposition width; Replicas the replication factor.
func (nd *Node) Self() int     { return nd.cfg.Self }
func (nd *Node) Nodes() int    { return len(nd.cfg.Peers) }
func (nd *Node) Procs() int    { return nd.cfg.Procs }
func (nd *Node) Replicas() int { return nd.cfg.Replicas }

// blockSpan returns the contiguous block range [lo, hi) slot k owns out
// of p blocks laid out over `nodes` slots by core.EvenBlocks.
func blockSpan(p, nodes, k int) (lo, hi int) {
	return int(core.BlockStart(int64(p), nodes, k)), int(core.BlockStart(int64(p), nodes, k+1))
}

// ownerOfBlock inverts blockSpan: the slot owning block b.
func ownerOfBlock(p, nodes, b int) int { return core.BlockOf(int64(p), nodes, int64(b)) }

// blockOfIndex returns the even-layout block containing global index idx.
func blockOfIndex(n int64, p int, idx int64) int { return core.BlockOf(n, p, idx) }

// blockStart returns the first global index of even-layout block b, for
// 0 <= b <= p.
func blockStart(n int64, p, b int) int64 { return core.BlockStart(n, p, b) }

// replicasOf returns the nodes owning shard slot k, primary first: the
// R consecutive nodes starting at k, mod the cluster size.
func (nd *Node) replicasOf(slot int) []int {
	out := make([]int, nd.cfg.Replicas)
	for j := range out {
		out[j] = (slot + j) % len(nd.cfg.Peers)
	}
	return out
}

// hasDuty reports whether node k is one of slot's replicas.
func (nd *Node) hasDuty(k, slot int) bool {
	d := k - slot
	if d < 0 {
		d += len(nd.cfg.Peers)
	}
	return d < nd.cfg.Replicas
}

// duties returns the slots node k replicates, its own slot first.
func (nd *Node) duties(k int) []int {
	nodes := len(nd.cfg.Peers)
	out := make([]int, nd.cfg.Replicas)
	for j := range out {
		out[j] = ((k-j)%nodes + nodes) % nodes
	}
	return out
}

// ShardRange returns the index range [lo, hi) of the domain [0, n) that
// shard slot k covers: the concatenation of its contiguous target
// blocks.
func (nd *Node) ShardRange(n int64, k int) (lo, hi int64) {
	blo, bhi := blockSpan(nd.cfg.Procs, len(nd.cfg.Peers), k)
	return blockStart(n, nd.cfg.Procs, blo), blockStart(n, nd.cfg.Procs, bhi)
}

// Owner returns the shard slot covering global output index idx of a
// size-n domain — which is also the index of the slot's primary
// replica node. With Replicas > 1 the full owner set is the R nodes
// starting there.
func (nd *Node) Owner(n, idx int64) int {
	return ownerOfBlock(nd.cfg.Procs, len(nd.cfg.Peers), blockOfIndex(n, nd.cfg.Procs, idx))
}

// shardKey identifies one slot of one permutation: a shard this node
// can hold, or a routed source slot (route.go). Procs and the node
// layout are fixed per Node, so (slot, n, seed) suffices — and because
// a slot's bytes are independent of which replica computes them, the
// key needs no node component.
type shardKey struct {
	slot int
	n    int64
	seed uint64
}

// Shard is one slot's slice of one permutation: its store holds
// π(Start), π(Start+1), ... π(End-1) of the cluster permutation π of
// (seed, n, Procs), 4 bytes per position when n <= 2^31-1 and 8 above.
type Shard struct {
	Start, End int64
	engine.Positions
}

// shard returns the cached shard for (slot, n, seed), building it on
// a miss: racing callers share one build, and a failed build is not
// cached.
func (nd *Node) shard(slot int, n int64, seed uint64) (*Shard, error) {
	sh, _, err := nd.shards.Get(shardKey{slot: slot, n: n, seed: seed}, func() (*Shard, error) {
		began := time.Now()
		sh, err := engine.ByWidth(n, buildShard[int32], buildShard[int64])(nd, slot, n, seed)
		if err == nil {
			nd.shardBuilds.Add(1)
			nd.shardBuildNs.Add(time.Since(began).Nanoseconds())
		}
		return sh, err
	})
	return sh, err
}

// buildShard runs the three rounds for slot's shard of the (seed, n)
// permutation, stored as T. The slot need not be this node's own: a
// replica build runs the identical rounds and produces identical
// bytes, because nothing below depends on Self except which source
// blocks are routed locally versus fetched — and both paths realize
// the same matrix entries from the same streams.
func buildShard[T int32 | int64](nd *Node, slot int, n int64, seed uint64) (*Shard, error) {
	p, nodes, self := nd.cfg.Procs, len(nd.cfg.Peers), nd.cfg.Self
	blo, bhi := blockSpan(p, nodes, slot)

	// Round 1: the communication matrix, sampled locally from the
	// shared seed — every node derives the same matrix.
	began := time.Now()
	sizes := core.EvenBlocks(n, p)
	cgm := engine.NewCGM(seed, sizes, sizes)
	nd.publishRound(slot, 1, n, seed, time.Since(began), "matrix")

	// The shard is the window of the slot's target blocks; one spare
	// slot past it is round 2's sink.
	win := cgm.Window(blo, bhi)
	buf := make([]T, win.Len(0)+1)
	vals := buf[:win.Len(0)]
	seg := func(i, j int) []T {
		lo, hi := win.Segment(i, j)
		return vals[lo:hi]
	}

	// Round 2, remote half: the h-relation. For every source slot this
	// node does not replicate, fetch the payloads its blocks route to
	// the target slot from one of that slot's duty holders — primary
	// first, failing over through the replica set; each received
	// segment is verified against our own matrix entry before
	// placement. Slots are fetched concurrently, while the local half
	// below runs — their target segments are disjoint by construction.
	began = time.Now()
	var wg sync.WaitGroup
	errs := make([]error, nodes)
	for s := 0; s < nodes; s++ {
		if nd.hasDuty(self, s) {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fetchExchangeSlot(nd, s, slot, n, seed, cgm.Matrix(), seg)
		}(s)
	}

	// Round 2, local half: every source block belonging to a slot this
	// node replicates is routed locally — replicas are free, so no wire
	// traffic is spent on payloads this node can derive itself. A lone
	// node routes straight into the window; with peers, each replicated
	// source slot is routed once into its entry (route.go), which this
	// build and every exchange leg served for it copy from.
	if nodes == 1 {
		var labels []int32
		for i := 0; i < p; i++ {
			labels = cgm.LabelsInto(labels, i)
			engine.RouteIota(win, i, labels, buf)
			nd.routedBlocks.Add(1)
		}
	} else {
		for _, s := range nd.duties(self) {
			rt := nd.route(s, n, seed, cgm)
			slo, shi := blockSpan(p, nodes, s)
			for i := slo; i < shi; i++ {
				for j := blo; j < bhi; j++ {
					lo, _ := rt.segment(i, j)
					readPositions(rt.vals, seg(i, j), lo)
				}
			}
			nd.take(rt, slot)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// The failed exchange is reported as the round's event too
			// (Detail "failed"), so an event-stream consumer sees the
			// round the PeerError names without parsing error strings.
			nd.publishRound(slot, 2, n, seed, time.Since(began), "failed")
			return nil, err
		}
	}
	nd.publishRound(slot, 2, n, seed, time.Since(began), "exchange")

	// Round 3: arrange every owned target block in place from its own
	// stream, on the engine's worker pool.
	began = time.Now()
	pool := engine.NewPool(min(runtime.GOMAXPROCS(0), bhi-blo), seed)
	defer pool.Close()
	if err := pool.For(bhi-blo, func(jj int) { engine.Arrange(win, blo+jj, vals) }); err != nil {
		return nil, err
	}
	nd.publishRound(slot, 3, n, seed, time.Since(began), "arrange")
	start, end := nd.ShardRange(n, slot)
	return &Shard{Start: start, End: end, Positions: engine.PosSlice[T](vals)}, nil
}
