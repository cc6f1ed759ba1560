package cluster

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"randperm/internal/cluster/chaos"
	"randperm/internal/harness/testkit"
	"randperm/internal/stats"
)

// bootChaosCluster starts a loopback cluster like bootCluster, but with
// every node's handler behind a chaos.Proxy, so drills can kill, stall,
// corrupt or partition any peer at any round boundary. mod, when
// non-nil, adjusts each node's Config before construction.
func bootChaosCluster(t *testing.T, nodes, procs, replicas int, mod func(*Config)) ([]*Node, []*chaos.Proxy) {
	t.Helper()
	nds := make([]*Node, nodes)
	_, proxies := testkit.LoopbackChaos(t, nodes, func(k int, peers []string) http.Handler {
		cfg := Config{Self: k, Peers: peers, Procs: procs, Replicas: replicas}
		if mod != nil {
			mod(&cfg)
		}
		nd, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nds[k] = nd
		mux := http.NewServeMux()
		mux.Handle("/v1/cluster/", nd.Handler())
		return mux
	})
	return nds, proxies
}

// readAll pulls the whole (seed, n) permutation through one node's
// Permuter in a single Chunk call.
func readAll(nd *Node, n int64, seed uint64) ([]int64, error) {
	buf := make([]int64, n)
	_, err := nd.Permuter(n, seed).Chunk(buf, 0)
	return buf, err
}

// TestReplicaByteIdentity is the replica determinism contract: for
// every replication factor, every node serves exactly the bytes the
// single-process engine computes — which replica derives a slot is
// invisible in the output.
func TestReplicaByteIdentity(t *testing.T) {
	const n, procs, seed = 501, 6, 11
	want := singleNodeCGM(t, n, procs, seed)
	for _, replicas := range []int{1, 2, 3} {
		nds, _ := bootChaosCluster(t, 3, procs, replicas, nil)
		for k, nd := range nds {
			got, err := readAll(nd, n, seed)
			if err != nil {
				t.Fatalf("R=%d node %d: %v", replicas, k, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("R=%d node %d: byte divergence at %d: %d != %d",
						replicas, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDrillKillOneNodeR2 is the headline failure drill: with R=2, kill
// any node at any round boundary — before the shuffle starts, during
// the round-2 h-relation, or at round-boundary serving — and every
// surviving node still serves the shuffle byte-identical to the
// single-process run, transparently through the dead node's replicas.
func TestDrillKillOneNodeR2(t *testing.T) {
	const nodes, procs, replicas = 3, 6, 2
	const n, seed = 999, 7
	want := singleNodeCGM(t, n, procs, seed)
	phases := []struct {
		name string
		arm  func(p *chaos.Proxy)
	}{
		// Process death before the first request: every call to the
		// victim — exchange, chunk, join — aborts.
		{"start", func(p *chaos.Proxy) { p.Kill() }},
		// Death scoped to round 2: the victim dies under the h-relation
		// but still answers routed chunk reads.
		{"exchange", func(p *chaos.Proxy) {
			p.Set(chaos.Rule{Path: "exchange", From: chaos.AnyPeer, Fault: chaos.Kill})
		}},
		// Death scoped to serving: shard builds complete, routed reads
		// to the victim abort.
		{"chunk", func(p *chaos.Proxy) {
			p.Set(chaos.Rule{Path: "chunk", From: chaos.AnyPeer, Fault: chaos.Kill})
		}},
	}
	for _, phase := range phases {
		for victim := 0; victim < nodes; victim++ {
			nds, proxies := bootChaosCluster(t, nodes, procs, replicas, nil)
			phase.arm(proxies[victim])
			for reader := 0; reader < nodes; reader++ {
				if reader == victim {
					continue
				}
				got, err := readAll(nds[reader], n, seed)
				if err != nil {
					t.Fatalf("phase %s, kill node %d, read node %d: %v",
						phase.name, victim, reader, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("phase %s, kill node %d, read node %d: byte divergence at %d",
							phase.name, victim, reader, i)
					}
				}
			}
		}
	}
}

// TestDrillKillR1Atomic is the R=1 half of the failure-semantics
// contract: the same kill that R=2 absorbs transparently must surface
// as an error — typed, naming the dead peer and the round — never as
// partial or silently recomputed bytes.
func TestDrillKillR1Atomic(t *testing.T) {
	const n, procs = 500, 4
	nds, proxies := bootChaosCluster(t, 2, procs, 1, nil)
	proxies[1].Kill()

	// A read that needs the dead node's exchange contribution: building
	// this node's own shard requires source slot 1's payloads, which
	// with R=1 only the dead node can derive.
	_, err := readAll(nds[0], n, 3)
	if err == nil {
		t.Fatal("R=1 shuffle completed with a dead peer")
	}
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("no *PeerError in the chain: %v", err)
	}
	if pe.Node != 1 || pe.Addr != nds[0].cfg.Peers[1] {
		t.Errorf("PeerError names node %d (%s), want node 1 (%s)", pe.Node, pe.Addr, nds[0].cfg.Peers[1])
	}
	if pe.Round != RoundExchange || pe.Op != "exchange" {
		t.Errorf("PeerError round/op = %d/%s, want %d/exchange", pe.Round, pe.Op, RoundExchange)
	}

	// A read aimed at the dead node's own shard: the failure is in
	// serving, not the exchange.
	lo, hi := nds[0].ShardRange(n, 1)
	span := make([]int64, hi-lo)
	if _, err = nds[0].Permuter(n, 3).Chunk(span, lo); err == nil {
		t.Fatal("dead node's shard served with R=1")
	}
	if !errors.As(err, &pe) {
		t.Fatalf("no *PeerError in the chunk chain: %v", err)
	}
	if pe.Node != 1 || pe.Round != RoundServe || pe.Op != "chunk" {
		t.Errorf("chunk PeerError = node %d round %d op %s, want node 1 round %d op chunk",
			pe.Node, pe.Round, pe.Op, RoundServe)
	}
}

// TestDrillConcurrentChunkLowestSlot is the contract of the concurrent
// Chunk: a range's slot spans are read in parallel, yet the error a
// failed read returns never depends on which span finished first — it
// is always the lowest-numbered failed slot's — and every goroutine a
// read starts has exited once it returns, failed or not.
func TestDrillConcurrentChunkLowestSlot(t *testing.T) {
	const n, procs = 900, 6
	nds, proxies := bootChaosCluster(t, 3, procs, 1, nil)
	// settle closes idle keep-alive connections (their transport and
	// server goroutines are not the read's) and waits for the goroutine
	// count to fall back to limit, returning the last count seen.
	settle := func(limit int) int {
		deadline := time.Now().Add(10 * time.Second)
		for {
			http.DefaultTransport.(*http.Transport).CloseIdleConnections()
			g := runtime.NumGoroutine()
			if g <= limit || time.Now().After(deadline) {
				return g
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	baseline := runtime.NumGoroutine()

	// Slots 1 and 2 both fail serving; node 0 builds slot 0 itself, so
	// every read has one good span and two failed ones racing.
	for _, k := range []int{1, 2} {
		proxies[k].Set(chaos.Rule{Path: "chunk", From: chaos.AnyPeer, Fault: chaos.Error})
	}
	for r := range 20 {
		_, err := readAll(nds[0], n, uint64(100+r))
		var pe *PeerError
		if !errors.As(err, &pe) {
			t.Fatalf("read %d: no *PeerError in the chain: %v", r, err)
		}
		if pe.Node != 1 || pe.Op != "chunk" || pe.Round != RoundServe {
			t.Fatalf("read %d: error names node %d op %s round %d, want the lowest failed slot's: node 1 op chunk round %d",
				r, pe.Node, pe.Op, pe.Round, RoundServe)
		}
	}
	if g := settle(baseline); g > baseline {
		t.Errorf("after failed reads: %d goroutines, baseline %d", g, baseline)
	}

	for _, p := range proxies {
		p.Revive()
	}
	for r := range 20 {
		seed := uint64(200 + r)
		got, err := readAll(nds[0], n, seed)
		if err != nil {
			t.Fatalf("read %d after revival: %v", r, err)
		}
		want := singleNodeCGM(t, n, procs, seed)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("read %d: byte divergence at %d", r, i)
			}
		}
	}
	if g := settle(baseline); g > baseline {
		t.Errorf("after successful reads: %d goroutines, baseline %d", g, baseline)
	}
}

// TestDrillCorruptExchange: a corrupted round-2 response must never be
// placed. With R=2 the matrix verification rejects it and the build
// fails over to the clean replica — byte-identical output, one failover
// counted; with R=1 the build errors.
func TestDrillCorruptExchange(t *testing.T) {
	const n, procs, seed = 300, 6, 5
	want := singleNodeCGM(t, n, procs, seed)
	nds, proxies := bootChaosCluster(t, 3, procs, 2, nil)
	proxies[1].Set(chaos.Rule{Path: "exchange", From: chaos.AnyPeer, Fault: chaos.Corrupt})
	got, err := readAll(nds[0], n, seed)
	if err != nil {
		t.Fatalf("R=2 read with a corrupting peer: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("corrupted exchange leaked into the output at %d", i)
		}
	}

	nds1, proxies1 := bootChaosCluster(t, 2, 4, 1, nil)
	proxies1[1].Set(chaos.Rule{Path: "exchange", From: chaos.AnyPeer, Fault: chaos.Corrupt})
	if _, err := readAll(nds1[0], n, seed); err == nil {
		t.Fatal("R=1 build accepted a corrupted exchange")
	}
}

// TestDrillHedgeBeatsStall: a stalled (not dead) replica is the case
// hedged reads exist for — the read must complete fast via the second
// replica, the hedge must be counted, and the straggler must be
// cancelled, not abandoned.
func TestDrillHedgeBeatsStall(t *testing.T) {
	const n, procs, seed = 600, 6, 9
	nds, proxies := bootChaosCluster(t, 3, procs, 2, func(c *Config) {
		c.HedgeAfter = 5 * time.Millisecond
	})
	// Node 0 does not replicate slot 1; its replicas are nodes 1
	// (primary) and 2. Stall the primary's serving path far past any
	// sane latency.
	proxies[1].Set(chaos.Rule{Path: "chunk", From: chaos.AnyPeer, Fault: chaos.Stall, Stall: time.Minute})
	lo, hi := nds[0].ShardRange(n, 1)
	span := make([]int64, hi-lo)
	began := time.Now()
	if _, err := nds[0].Permuter(n, seed).Chunk(span, lo); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(began); elapsed > 20*time.Second {
		t.Fatalf("hedge did not beat the stall: read took %v", elapsed)
	}
	want := singleNodeCGM(t, n, procs, seed)
	for i := range span {
		if span[i] != want[lo+int64(i)] {
			t.Fatalf("hedged read diverged at %d", i)
		}
	}
	if nds[0].hedgedReqs.Load() == 0 || nds[0].hedgeWins.Load() == 0 {
		t.Errorf("hedge counters: hedged=%d wins=%d, want both > 0",
			nds[0].hedgedReqs.Load(), nds[0].hedgeWins.Load())
	}
	// The losing racer's request is cancelled through its context; the
	// proxy observes the cancellation asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for proxies[1].Aborted() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if proxies[1].Aborted() == 0 {
		t.Error("stalled hedge loser was never cancelled")
	}
}

// TestDrillHealthRoutingAndRejoin: a first-hand failure deprioritizes
// the peer so later reads route around it without burning a failover,
// and the join handshake — not a timeout — restores a revived peer to
// the routing order.
func TestDrillHealthRoutingAndRejoin(t *testing.T) {
	const n, seed = 600, 13
	nds, proxies := bootChaosCluster(t, 3, 6, 2, func(c *Config) {
		c.HedgeAfter = -1 // failover only: keeps the counters deterministic
	})
	proxies[1].Kill()
	lo, hi := nds[0].ShardRange(n, 1)
	span := make([]int64, hi-lo)
	if _, err := nds[0].Permuter(n, seed).Chunk(span, lo); err != nil {
		t.Fatalf("read with one dead replica: %v", err)
	}
	if got := nds[0].failovers.Load(); got == 0 {
		t.Fatal("first read did not fail over")
	}
	if st := nds[0].health.snapshot()[1]; st == stateHealthy {
		t.Fatalf("failed peer still ranked healthy")
	}
	// Second read: the sick peer is ranked last, so the healthy replica
	// answers first and the failover counter must not move.
	before := nds[0].failovers.Load()
	if _, err := nds[0].Permuter(n, seed).Chunk(span, lo); err != nil {
		t.Fatal(err)
	}
	if got := nds[0].failovers.Load(); got != before {
		t.Errorf("routing did not skip the sick peer: failovers %d -> %d", before, got)
	}

	// Rejoin: revive the peer and run its join handshake against node
	// 0. The matching geometry clears the sick mark immediately.
	proxies[1].Revive()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := nds[1].Join(ctx, 0); err != nil {
		t.Fatalf("rejoin handshake: %v", err)
	}
	if st := nds[0].health.snapshot()[1]; st != stateHealthy {
		t.Errorf("rejoined peer still marked %s", st)
	}
}

// TestDrillGossipPropagation: sickness observed first-hand by one node
// reaches another on the headers of a call the nodes were making
// anyway, and arrives as suspicion (deprioritized), never as a
// second-hand down verdict.
func TestDrillGossipPropagation(t *testing.T) {
	nds, _ := bootChaosCluster(t, 3, 6, 2, nil)
	// Node 0 observes node 2 down, first-hand.
	nds[0].health.failure(2)
	nds[0].health.failure(2)
	if st := nds[0].health.snapshot()[2]; st != stateDown {
		t.Fatalf("two first-hand failures left node 2 %s", st)
	}
	// Any call from 0 to 1 carries the view; the join handshake is the
	// cheapest such call.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := nds[0].Join(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if st := nds[1].health.snapshot()[2]; st != stateSuspect {
		t.Errorf("gossiped sickness arrived as %s, want suspect", st)
	}
}

// TestJoinGeometry: JoinAll succeeds across an agreeing cluster; a node
// with a different geometry is refused with ErrGeometryMismatch — the
// fatal, stateless membership check.
func TestJoinGeometry(t *testing.T) {
	nds, _ := bootChaosCluster(t, 3, 6, 2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, nd := range nds {
		if err := nd.JoinAll(ctx); err != nil {
			t.Fatalf("node %d JoinAll: %v", nd.Self(), err)
		}
	}
	// Same peers, different width: must be turned away at the door.
	bad, err := New(Config{Self: 0, Peers: nds[0].cfg.Peers, Procs: 12, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = bad.Join(ctx, 1)
	if !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("mismatched geometry joined: %v", err)
	}
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Op != "join" {
		t.Errorf("join refusal not a *PeerError naming the op: %v", err)
	}
	if !strings.Contains(err.Error(), "p=12") {
		t.Errorf("mismatch error does not name the disagreeing width: %v", err)
	}
}

// TestDrillUniformReplicated is the distributional drill: replication
// must not disturb Algorithm 1's exactness. A replicated 2-node
// cluster's shuffle over S_4, chi-squared against the uniform law.
func TestDrillUniformReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	const n = 4
	const trials = 12000
	nds, _ := bootChaosCluster(t, 2, 2, 2, nil)
	counts := make([]int64, stats.Factorial(n))
	buf := make([]int64, n)
	for tr := 0; tr < trials; tr++ {
		// Alternate reading node so both replicas' derivations land in
		// the same tally — they must agree byte-for-byte anyway.
		pm := nds[tr%2].Permuter(n, uint64(tr)*0x9E3779B97F4A7C15+23)
		if _, err := pm.Chunk(buf, 0); err != nil {
			t.Fatal(err)
		}
		counts[stats.RankPermInt64(buf)]++
	}
	res, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(0.0005) {
		t.Errorf("replicated cluster shuffle non-uniform: %s", res)
	}
}
