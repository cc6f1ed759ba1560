package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"randperm"
	"randperm/internal/cluster/chaos"
	"randperm/internal/harness/testkit"
)

// bootServiceCluster starts `nodes` full permd handlers in cluster mode
// on loopback servers, exactly as N processes started with
// -peers/-node would run, and waits for every node's /healthz before
// returning — readiness is polled, never assumed from elapsed time, so
// the cluster tests are deterministic under -race and load.
func bootServiceCluster(t testing.TB, nodes int, base Config) []*httptest.Server {
	t.Helper()
	servers := testkit.Loopback(t, nodes, func(k int, peers []string) http.Handler {
		cfg := base
		cfg.ClusterPeers = peers
		cfg.ClusterNode = k
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	for _, srv := range servers {
		testkit.WaitHealthy(t, srv.URL)
	}
	return servers
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	return testkit.Get(t, url)
}

// TestClusterServiceByteIdentical is the service-level acceptance
// contract: a 2-node permd cluster answers a backend=cluster chunk —
// requested from either node, covering the whole domain so both shards
// and the proxy path are exercised — with exactly the bytes a
// single-node, non-cluster server produces for the same (seed, n).
func TestClusterServiceByteIdentical(t *testing.T) {
	const n, seed = 600, 42
	servers := bootServiceCluster(t, 2, Config{Procs: 8})
	single := newTestServer(t, Config{Procs: 8})
	path := fmt.Sprintf("/v1/perm/%d/chunk?n=%d&len=%d&backend=cluster", seed, n, n)
	_, want := get(t, single, path)
	if len(want) == 0 || strings.Contains(want, "permd:") {
		t.Fatalf("single-node reference failed: %q", want)
	}
	for k, srv := range servers {
		code, body := httpGet(t, srv.URL+path)
		if code != http.StatusOK {
			t.Fatalf("node %d: status %d: %s", k, code, body)
		}
		if body != want {
			t.Errorf("node %d: cluster-served chunk differs from single-node bytes", k)
		}
	}
	// A sub-range that lives entirely on the far shard still answers
	// from node 0 (the proxy path alone).
	farPath := fmt.Sprintf("/v1/perm/%d/chunk?n=%d&start=%d&len=50&backend=cluster", seed, n, n-50)
	code, body := httpGet(t, servers[0].URL+farPath)
	if code != http.StatusOK {
		t.Fatalf("far-shard chunk: status %d: %s", code, body)
	}
	if !strings.HasSuffix(want, body) {
		t.Error("far-shard chunk is not the tail of the full response")
	}
	// At on the far shard answers through the same routed path.
	atPath := fmt.Sprintf("/v1/perm/%d/at?n=%d&i=%d&backend=cluster", seed, n, n-1)
	code, body = httpGet(t, servers[0].URL+atPath)
	if code != http.StatusOK {
		t.Fatalf("at: status %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(want), "\n")
	if strings.TrimSpace(body) != lines[n-1] {
		t.Errorf("at = %q, want %q", strings.TrimSpace(body), lines[n-1])
	}
}

// TestClusterServiceSurfaces: cluster mode shows up in /healthz, the
// peer endpoints answer, and /metrics carries the permd_cluster_*
// families.
func TestClusterServiceSurfaces(t *testing.T) {
	servers := bootServiceCluster(t, 2, Config{Procs: 4})
	code, body := httpGet(t, servers[1].URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h struct {
		Cluster struct {
			Node, Nodes, Procs int
		} `json:"cluster"`
		Backends []string `json:"backends"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Cluster.Node != 1 || h.Cluster.Nodes != 2 || h.Cluster.Procs != 4 {
		t.Errorf("healthz cluster block wrong: %+v", h.Cluster)
	}
	found := false
	for _, b := range h.Backends {
		found = found || b == "cluster"
	}
	if !found {
		t.Errorf("cluster missing from healthz backends: %v", h.Backends)
	}
	if code, _ := httpGet(t, servers[0].URL+"/v1/cluster/status"); code != http.StatusOK {
		t.Errorf("cluster status: %d", code)
	}
	// Drive one sharded request, then look for the cluster counters.
	if code, _ := httpGet(t, servers[0].URL+"/v1/perm/1/chunk?n=200&len=200&backend=cluster"); code != http.StatusOK {
		t.Fatalf("chunk: %d", code)
	}
	_, metrics := httpGet(t, servers[0].URL+"/metrics")
	for _, want := range []string{
		"permd_cluster_shard_builds_total 1",
		"permd_cluster_proxied_requests_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// A misconfigured width cannot cross the exchange: a third server
	// with different Procs pointing at these peers fails its build.
	peers := []string{servers[0].URL, servers[1].URL}
	bad, err := New(Config{Procs: 16, ClusterPeers: peers, ClusterNode: 0})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	bad.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/perm/1/chunk?n=200&len=10&backend=cluster", nil))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "mismatch") {
		t.Errorf("mismatched cluster width served: %d %q", rec.Code, rec.Body.String())
	}
}

// bootChaosServiceCluster is bootServiceCluster with every node behind
// a chaos.Proxy, for service-level failure drills. It also returns each
// node's Server, for drills that reach into the admission gate.
func bootChaosServiceCluster(t *testing.T, nodes int, base Config) ([]*httptest.Server, []*chaos.Proxy, []*Server) {
	t.Helper()
	permds := make([]*Server, nodes)
	servers, proxies := testkit.LoopbackChaos(t, nodes, func(k int, peers []string) http.Handler {
		cfg := base
		cfg.ClusterPeers = peers
		cfg.ClusterNode = k
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		permds[k] = s
		return s
	})
	for _, srv := range servers {
		testkit.WaitHealthy(t, srv.URL)
	}
	return servers, proxies, permds
}

// TestClusterServiceReplicatedDrill is the service-level acceptance
// drill: a 3-node R=2 permd cluster with any one node dead still
// answers a backend=cluster chunk from every survivor with exactly the
// single-node bytes — the client cannot tell a failure happened.
func TestClusterServiceReplicatedDrill(t *testing.T) {
	const n, seed, procs = 600, 42, 6
	single := newTestServer(t, Config{Procs: procs})
	path := fmt.Sprintf("/v1/perm/%d/chunk?n=%d&len=%d&backend=cluster", seed, n, n)
	_, want := get(t, single, path)
	if len(want) == 0 || strings.Contains(want, "permd:") {
		t.Fatalf("single-node reference failed: %q", want)
	}
	for victim := 0; victim < 3; victim++ {
		servers, proxies, _ := bootChaosServiceCluster(t, 3, Config{Procs: procs, ClusterReplicas: 2})
		// Replication shows up in the liveness echo.
		var h struct {
			Cluster struct {
				Replicas int    `json:"replicas"`
				Geometry string `json:"geometry"`
			} `json:"cluster"`
		}
		_, hz := httpGet(t, servers[0].URL+"/healthz")
		if err := json.Unmarshal([]byte(hz), &h); err != nil {
			t.Fatal(err)
		}
		if h.Cluster.Replicas != 2 || h.Cluster.Geometry == "" {
			t.Fatalf("healthz cluster block missing replication: %s", hz)
		}
		proxies[victim].Kill()
		for reader := 0; reader < 3; reader++ {
			if reader == victim {
				continue
			}
			code, body := httpGet(t, servers[reader].URL+path)
			if code != http.StatusOK {
				t.Fatalf("kill node %d, read node %d: status %d: %s", victim, reader, code, body)
			}
			if body != want {
				t.Errorf("kill node %d, read node %d: served bytes differ from single-node run", victim, reader)
			}
		}
	}
}

// TestClusterServiceAtomicFailure is the R=1 half of the contract at
// the HTTP layer: a chunk that needs a dead peer fails with a 500 and
// ZERO payload bytes — the response is assembled before the first byte
// is written, so a mid-range peer death can never leak a partial
// permutation to a client.
func TestClusterServiceAtomicFailure(t *testing.T) {
	const n, seed = 500, 3
	servers, proxies, _ := bootChaosServiceCluster(t, 2, Config{Procs: 4})
	proxies[1].Kill()
	for _, path := range []string{
		// The whole domain: node 0's own shard would be served first if
		// the handler streamed eagerly — the dead far shard must take
		// the whole response down instead.
		fmt.Sprintf("/v1/perm/%d/chunk?n=%d&len=%d&backend=cluster", seed, n, n),
		// A point read in the dead peer's shard.
		fmt.Sprintf("/v1/perm/%d/at?n=%d&i=%d&backend=cluster", seed, n, n-1),
	} {
		code, body := httpGet(t, servers[0].URL+path)
		if code != http.StatusInternalServerError {
			t.Fatalf("R=1 %s with a dead peer: status %d: %.80s", path, code, body)
		}
		if !strings.HasPrefix(body, "permd:") {
			t.Errorf("%s: error response carries payload bytes before the error: %.80s", path, body)
		}
		// The typed peer error survives to the operator-visible message.
		if !strings.Contains(body, "node 1") {
			t.Errorf("%s: error does not name the dead peer: %.200s", path, body)
		}
	}
}

// TestClusterEmptyReadNoBuild pins that a backend=cluster read of the
// empty domain has nothing to build: it is answered without taking a
// build slot, however often it is repeated.
func TestClusterEmptyReadNoBuild(t *testing.T) {
	servers, _, permds := bootChaosServiceCluster(t, 2, Config{Procs: 4})
	for i := 0; i < 3; i++ {
		if code, body := httpGet(t, servers[0].URL+"/v1/perm/5/chunk?n=0&backend=cluster"); code != http.StatusOK || body != "" {
			t.Fatalf("read %d of n=0: status %d: %.80s", i, code, body)
		}
	}
	if got := metricValue(t, permds[0], "permd_admission_builds_total"); got != 0 {
		t.Errorf("admitted %d builds for three reads of n=0, want 0", got)
	}
	if got := metricValue(t, permds[0], "permd_cluster_shard_builds_total"); got != 0 {
		t.Errorf("built %d shards for three reads of n=0, want 0", got)
	}
}

// TestClusterColdPullStallDrill pins the overlap of a cold cluster
// pull's shard builds. Node 0's gated build is held in round 2 — node
// 1 stalls node 0's exchange fetch — yet node 1 must build its own
// shard for the same pull before the stall ends: node 0's peer reads
// start when its build is admitted, not after the build. Concurrent
// pulls share the one admitted build, and each answers with the
// single-node bytes.
func TestClusterColdPullStallDrill(t *testing.T) {
	const n, seed, procs, pulls = 4096, 17, 4, 4
	const stall = time.Second
	path := fmt.Sprintf("/v1/perm/%d/chunk?n=%d&len=%d&backend=cluster", seed, n, n)
	_, want := get(t, newTestServer(t, Config{Procs: procs}), path)
	servers, proxies, permds := bootChaosServiceCluster(t, 2, Config{Procs: procs})
	proxies[1].Set(chaos.Rule{Path: "exchange", From: 0, Fault: chaos.Stall, Stall: stall})

	type answer struct {
		code int
		body string
		err  error
	}
	done := make(chan answer, pulls)
	began := time.Now()
	for range pulls {
		go func() {
			resp, err := http.Get(servers[0].URL + path)
			if err != nil {
				done <- answer{err: err}
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			done <- answer{resp.StatusCode, string(body), err}
		}()
	}
	for metricValue(t, permds[1], "permd_cluster_shard_builds_total") == 0 {
		if time.Since(began) >= stall {
			t.Fatalf("node 1 built no shard while node 0's build stalled for %v: the peer read waited for the local build", stall)
		}
		time.Sleep(time.Millisecond)
	}
	for range pulls {
		a := <-done
		if a.err != nil || a.code != http.StatusOK {
			t.Fatalf("stalled cold pull: status %d, err %v: %.200s", a.code, a.err, a.body)
		}
		if a.body != want {
			t.Errorf("stalled cold pull differs from the single-node bytes")
		}
	}
	// Node 0's build, and so every pull, was held by the stall.
	if took := time.Since(began); took < stall || proxies[1].Requests("exchange") == 0 {
		t.Errorf("pulls took %v with %d exchanges at node 1: node 0's build was never stalled", took, proxies[1].Requests("exchange"))
	}
	for k, permd := range permds {
		if got := metricValue(t, permd, "permd_cluster_shard_builds_total"); got != 1 {
			t.Errorf("node %d built %d shards for %d concurrent pulls, want 1", k, got, pulls)
		}
	}
	if got := metricValue(t, permds[0], "permd_admission_builds_total"); got != 1 {
		t.Errorf("node 0 admitted %d builds for %d concurrent pulls, want 1", got, pulls)
	}
}

// settleGoroutines closes the default transport's idle connections
// and returns the goroutine count a moment later. The tests and every
// node share that transport, so this returns every connection
// goroutine the traffic left behind, on both ends; a connection still
// in use — a peer read or a response that outlived its request — stays
// open.
func settleGoroutines() int {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	time.Sleep(20 * time.Millisecond)
	return runtime.NumGoroutine()
}

// goroutineBaseline settles until two counts in a row agree.
func goroutineBaseline() int {
	baseline := settleGoroutines()
	for g := settleGoroutines(); g != baseline; g = settleGoroutines() {
		baseline = g
	}
	return baseline
}

// settleTo settles until the count is back to baseline or the deadline
// passes, and returns the last count.
func settleTo(baseline int, deadline time.Time) int {
	g := settleGoroutines()
	for g > baseline && time.Now().Before(deadline) {
		g = settleGoroutines()
	}
	return g
}

// TestClusterBuildQueueNoPeerReads pins the bounds of a cluster read's
// early peer reads. A cold backend=cluster read queued behind node 0's
// full build gate sends node 1 no chunk request, before or after the
// queue deadline refuses it with a bare 503. And a client that leaves
// while its admitted read waits on a stalled peer takes every
// goroutine the read started, on both nodes, with it.
func TestClusterBuildQueueNoPeerReads(t *testing.T) {
	const n = 4096
	servers, proxies, permds := bootChaosServiceCluster(t, 2, Config{Procs: 4, MaxBuilds: 1, BuildWait: 100 * time.Millisecond})
	path := fmt.Sprintf("%s/v1/perm/5/chunk?n=%d&len=%d&backend=cluster", servers[0].URL, n, n)
	permds[0].buildSem <- struct{}{} // hold node 0's only slot
	resp, err := http.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("queued cluster read: status %d (Retry-After %q), want 503", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if !strings.HasPrefix(string(body), "permd:") {
		t.Errorf("refused cluster read carries payload bytes: %.80s", body)
	}
	if got := permds[0].met.admissionQueued.Load(); got != 1 {
		t.Errorf("admission queue count = %d, want 1", got)
	}
	// Request counts only grow, so zero now means zero all along.
	if got := proxies[1].Requests("chunk"); got != 0 {
		t.Errorf("node 1 saw %d chunk requests from a read that was never admitted", got)
	}
	if got := metricValue(t, permds[1], "permd_cluster_shard_builds_total"); got != 0 {
		t.Errorf("node 1 built %d shards for a read that was never admitted", got)
	}

	// The admitted read: its peer read stalls at node 1 until the client
	// gives up.
	<-permds[0].buildSem
	proxies[1].Set(chaos.Rule{Path: "cluster/chunk", From: 0, Fault: chaos.Stall, Stall: time.Minute})
	baseline := goroutineBaseline()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", path, nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		errc <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for proxies[1].Requests("chunk") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the admitted read never reached node 1")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("disconnected read: %v, want context.Canceled", err)
	}
	if g := settleTo(baseline, deadline); g > baseline {
		t.Errorf("goroutines after the client left: %d, baseline %d — a peer read outlived its request", g, baseline)
	}
	if got := proxies[1].Aborted(); got != 1 {
		t.Errorf("stalled peer reads released by cancellation = %d, want 1", got)
	}
}

// TestClusterServeRangeLengths: backend=cluster responses of every
// shape the ordered parallel tail cuts — one value, less than one
// piece, not a multiple of a piece, across the shard boundary, the
// whole domain — are byte-identical to the library's Chunk. GOMAXPROCS
// is raised so that three helpers deal pieces even on one CPU.
func TestClusterServeRangeLengths(t *testing.T) {
	const n, seed = 5*tailPiece + 333, 7
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	servers := bootServiceCluster(t, 2, Config{Procs: 8})
	opt := randperm.Options{Procs: 8, Seed: seed, Backend: randperm.BackendCluster}
	for _, r := range []struct{ start, length int64 }{
		{0, 1}, {5, tailPiece - 1}, {17, tailPiece + 1}, {n/2 - 100, 2*tailPiece + 5},
		{n - 3*tailPiece - 7, 3*tailPiece + 7}, {0, n},
	} {
		code, body := httpGet(t, fmt.Sprintf("%s/v1/perm/%d/chunk?n=%d&start=%d&len=%d&backend=cluster",
			servers[0].URL, seed, n, r.start, r.length))
		if code != http.StatusOK {
			t.Fatalf("start %d len %d: status %d: %.80s", r.start, r.length, code, body)
		}
		if body != expectChunk(t, n, opt, r.start, r.length) {
			t.Errorf("start %d len %d: cluster-served bytes differ from the library's", r.start, r.length)
		}
	}
}

// TestClusterDisconnectMidBody: a client that reads the start of a cold
// cluster pull and hangs up stops the response — node 0 never counts it
// as served — and leaves no goroutine behind on either node: no
// formatting helper, no peer read, no connection. The body is several
// times what loopback socket buffers hold, so the hang-up lands while
// node 0 is still writing.
func TestClusterDisconnectMidBody(t *testing.T) {
	const n = 1 << 21
	servers, _, permds := bootChaosServiceCluster(t, 2, Config{Procs: 4})
	baseline := goroutineBaseline()
	resp, err := http.Get(fmt.Sprintf("%s/v1/perm/3/chunk?n=%d&len=%d&backend=cluster", servers[0].URL, n, n))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold pull: status %d", resp.StatusCode)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // unread body: the connection is closed, not reused
	if g := settleTo(baseline, time.Now().Add(10*time.Second)); g > baseline {
		t.Errorf("goroutines after the client left: %d, baseline %d — the response outlived its client", g, baseline)
	}
	if got := metricValue(t, permds[0], "permd_chunk_items_total"); got != 0 {
		t.Errorf("node 0 counted %d values served to a client that hung up", got)
	}
}

// BenchmarkServeClusterColdPull times a cold full pull end to end: a
// loopback permd cluster of 2, 4, 8 and 16 nodes, n = 10^6, p =
// max(8, nodes), a fresh seed per op, the whole text body read to EOF
// from node 0. Beside BenchmarkClusterColdPull's work it carries the
// HTTP request, the text encoding and the write; the node sweep shows
// how the exchange fan-out scales.
func BenchmarkServeClusterColdPull(b *testing.B) {
	const n = 1_000_000
	for _, nodes := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			servers := bootServiceCluster(b, nodes, Config{Procs: max(8, nodes)})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/v1/perm/%d/chunk?n=%d&len=%d&backend=cluster", servers[0].URL, i+1, n, n))
				if err != nil {
					b.Fatal(err)
				}
				m, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || m < 2*n {
					b.Fatalf("pull %d: status %d, %d bytes, %v", i, resp.StatusCode, m, err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/item")
		})
	}
}

// TestClusterStatusCounters pins /v1/cluster/status's counters: after
// a cold pull, each node's page carries exactly the twelve traffic
// counters, and each equals the matching permd_cluster_*_total sample
// on that node's /metrics.
func TestClusterStatusCounters(t *testing.T) {
	servers := make([]*Server, 2)
	urls := testkit.Loopback(t, 2, func(k int, peers []string) http.Handler {
		s, err := New(Config{Procs: 4, ClusterPeers: peers, ClusterNode: k, ClusterHedge: -1})
		if err != nil {
			t.Fatal(err)
		}
		servers[k] = s
		return s
	})
	if code, body := httpGet(t, urls[0].URL+"/v1/perm/1/chunk?n=200&len=200&backend=cluster"); code != http.StatusOK {
		t.Fatalf("cold pull: status %d: %s", code, body)
	}
	// A peer's handler counts its items after the response the pull
	// already read: wait for both nodes' buses to go quiet.
	for settled := 0; settled < 5; {
		before := servers[0].bus.Published() + servers[1].bus.Published()
		time.Sleep(10 * time.Millisecond)
		if servers[0].bus.Published()+servers[1].bus.Published() == before {
			settled++
		} else {
			settled = 0
		}
	}
	keys := []string{
		"chunk_items", "chunk_requests", "exchange_items", "exchange_requests",
		"failovers", "hedge_wins", "hedged_requests", "join_requests",
		"proxied_items", "proxied_requests", "shard_build_ns", "shard_builds",
	}
	for k, u := range urls {
		_, body := httpGet(t, u.URL+"/v1/cluster/status")
		var st struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		var got []string
		for key := range st.Counters {
			got = append(got, key)
		}
		slices.Sort(got)
		if !slices.Equal(got, keys) {
			t.Errorf("node %d: status counters %v, want %v", k, got, keys)
		}
		for _, key := range keys {
			if want := metricValue(t, servers[k], "permd_cluster_"+key+"_total"); st.Counters[key] != want {
				t.Errorf("node %d: status %s = %d, /metrics says %d", k, key, st.Counters[key], want)
			}
		}
	}
	if got := metricValue(t, servers[1], "permd_cluster_chunk_requests_total"); got != 1 {
		t.Errorf("node 1 served %d chunk requests for one cold pull, want 1", got)
	}
}
