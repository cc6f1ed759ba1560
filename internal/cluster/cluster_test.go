package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"randperm/internal/engine"
	"randperm/internal/harness/testkit"
	"randperm/internal/stats"
)

// bootCluster starts `nodes` in-process cluster nodes on loopback HTTP
// servers wired to each other, mirroring N permd processes with -peers.
func bootCluster(t *testing.T, nodes, procs int) []*Node {
	t.Helper()
	nds := make([]*Node, nodes)
	testkit.Loopback(t, nodes, func(k int, peers []string) http.Handler {
		nd, err := New(Config{Self: k, Peers: peers, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		nds[k] = nd
		mux := http.NewServeMux()
		mux.Handle("/v1/cluster/", nd.Handler())
		return mux
	})
	return nds
}

// singleNodeCGM is the byte-identity reference: the in-process blocked
// CGM permutation of the identity, the exact bytes every cluster layout
// must reproduce.
func singleNodeCGM(t *testing.T, n int64, p int, seed uint64) []int64 {
	t.Helper()
	id := make([]int64, n)
	for i := range id {
		id[i] = int64(i)
	}
	out, err := engine.PermuteSliceCGM(id, p, engine.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterMatchesSingleNode is the acceptance anchor: for every
// cluster size, reading the whole permutation through any node's
// Permuter yields exactly the single-process bytes for the same
// (seed, n, p) — chunking, shard boundaries and the HTTP hops are
// invisible.
func TestClusterMatchesSingleNode(t *testing.T) {
	for _, tc := range []struct {
		nodes, procs int
		n            int64
	}{
		{1, 4, 1000},
		{2, 2, 4},
		{2, 8, 1000},
		{3, 8, 1001},
		{4, 5, 997}, // blocks do not divide evenly over nodes
		{2, 8, 0},   // empty domain
		{2, 8, 1},
		{4, 8, 5}, // n < p: empty blocks
	} {
		nds := bootCluster(t, tc.nodes, tc.procs)
		want := singleNodeCGM(t, tc.n, tc.procs, 7)
		for k, nd := range nds {
			pm := nd.Permuter(tc.n, 7)
			if pm.Len() != tc.n {
				t.Fatalf("%+v: Len = %d", tc, pm.Len())
			}
			got := make([]int64, tc.n)
			// Pull through a deliberately awkward chunk size so spans
			// cross shard boundaries.
			buf := make([]int64, 17)
			var pos int64
			for pos < tc.n {
				m, err := pm.Chunk(buf, pos)
				if err != nil {
					t.Fatalf("%+v node %d: Chunk(%d): %v", tc, k, pos, err)
				}
				copy(got[pos:], buf[:m])
				pos += int64(m)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%+v node %d: byte divergence at %d: %d != %d",
						tc, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestClusterShardStrictlyLocal: the peer-facing chunk endpoint serves
// exactly the node's own shard and refuses anything outside it.
func TestClusterShardStrictlyLocal(t *testing.T) {
	const n, procs = 100, 8
	nds := bootCluster(t, 2, procs)
	want := singleNodeCGM(t, n, procs, 3)
	for k, nd := range nds {
		lo, hi := nd.ShardRange(n, k)
		sh, err := nd.shard(k, n, 3)
		if err != nil {
			t.Fatal(err)
		}
		if sh.Start != lo || sh.End != hi {
			t.Fatalf("node %d: shard [%d, %d), want [%d, %d)", k, sh.Start, sh.End, lo, hi)
		}
		for i, v := range sh.Vals {
			if v != want[lo+int64(i)] {
				t.Fatalf("node %d: shard value %d diverged", k, i)
			}
		}
	}
	// An out-of-shard request is refused, not proxied.
	lo0, _ := nds[0].ShardRange(n, 0)
	resp, err := http.Get(fmt.Sprintf("%s/v1/cluster/chunk?n=%d&seed=3&start=%d&len=%d",
		nds[1].cfg.Peers[1], n, lo0, 1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("out-of-shard request: got %s", resp.Status)
	}
}

// TestClusterUniform2Node is the distributional acceptance criterion: a
// 2-node loopback cluster shuffle over S_4, chi-squared against the
// exactly uniform law — the network rounds must not disturb Algorithm
// 1's exactness.
func TestClusterUniform2Node(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	const n = 4
	const trials = 12000
	nds := bootCluster(t, 2, 2)
	counts := make([]int64, stats.Factorial(n))
	buf := make([]int64, n)
	for tr := 0; tr < trials; tr++ {
		pm := nds[0].Permuter(n, uint64(tr)*0x9E3779B97F4A7C15+17)
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
		t.Errorf("2-node cluster shuffle non-uniform: %s", res)
	}
}

// TestClusterConfigMismatch: a peer running a different decomposition
// width or cluster size is refused at the exchange, so a shard build
// fails loudly instead of assembling bytes from a different
// permutation.
func TestClusterConfigMismatch(t *testing.T) {
	nds := bootCluster(t, 2, 8)
	// Node 0 reconfigured to a different width, pointing at node 1's
	// correct-width server.
	bad, err := New(Config{Self: 0, Peers: nds[0].cfg.Peers, Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.shard(0, 100, 1); err == nil ||
		!strings.Contains(err.Error(), "width mismatch") {
		t.Fatalf("mismatched width built a shard: %v", err)
	}
}

// TestClusterPeerDown: an unreachable peer turns into an error from
// Chunk, never a panic or a partial result — and the chain carries a
// typed *PeerError naming the dead peer's index, address and the
// algorithm round, so callers can act on the failure without parsing
// strings. (Regression: the exchange path used to flatten the transport
// error into fmt.Errorf text, losing the peer identity.)
func TestClusterPeerDown(t *testing.T) {
	nds := bootCluster(t, 2, 8)
	// A cluster whose second peer points at a closed server.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	lone, err := New(Config{Self: 0, Peers: []string{nds[0].cfg.Peers[0], dead.URL}, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int64, 10)
	_, err = lone.Permuter(100, 1).Chunk(buf, 0)
	if err == nil {
		t.Fatal("dead peer produced a shard")
	}
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("no *PeerError in the chain: %v", err)
	}
	if pe.Node != 1 || pe.Addr != dead.URL {
		t.Errorf("PeerError names node %d (%s), want node 1 (%s)", pe.Node, pe.Addr, dead.URL)
	}
	if pe.Round != RoundExchange || pe.Op != "exchange" {
		t.Errorf("PeerError round/op = %d/%q, want %d/exchange", pe.Round, pe.Op, RoundExchange)
	}
}

// TestGeometry pins the block/node arithmetic: spans partition the
// blocks, owners invert spans, and shard ranges tile [0, n).
func TestGeometry(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 5, 8} {
		for _, p := range []int{8, 9, 64} {
			if p < nodes {
				continue
			}
			prev := 0
			for k := 0; k < nodes; k++ {
				lo, hi := blockSpan(p, nodes, k)
				if lo != prev || hi < lo {
					t.Fatalf("p=%d nodes=%d: span %d = [%d, %d) not contiguous", p, nodes, k, lo, hi)
				}
				for b := lo; b < hi; b++ {
					if got := ownerOfBlock(p, nodes, b); got != k {
						t.Fatalf("ownerOfBlock(%d,%d,%d) = %d, want %d", p, nodes, b, got, k)
					}
				}
				prev = hi
			}
			if prev != p {
				t.Fatalf("p=%d nodes=%d: spans cover %d blocks", p, nodes, prev)
			}
		}
	}
	nd, err := New(Config{Self: 0, Peers: []string{"a", "b", "c"}, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{0, 1, 5, 8, 1000, 1001} {
		var prev int64
		for k := 0; k < 3; k++ {
			lo, hi := nd.ShardRange(n, k)
			if lo != prev {
				t.Fatalf("n=%d: shard %d starts at %d, want %d", n, k, lo, prev)
			}
			for i := lo; i < hi; i++ {
				if got := nd.Owner(n, i); got != k {
					t.Fatalf("n=%d: Owner(%d) = %d, want %d", n, i, got, k)
				}
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("n=%d: shards cover %d", n, prev)
		}
	}
}

// TestPeerEndpointGuards: the peer-facing endpoints must refuse what
// the public API would refuse — an unbounded n (when MaxN is set) and
// a length that would overflow the shard-bounds arithmetic.
func TestPeerEndpointGuards(t *testing.T) {
	nds := bootCluster(t, 2, 8)
	base := nds[0].cfg.Peers[0]
	// MaxN-gated node: rebuild node 0's handler with a bound.
	bounded, err := New(Config{Self: 0, Peers: nds[0].cfg.Peers, Procs: 8, MaxN: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(h http.Handler, url string) (int, string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		return w.Code, w.Body.String()
	}
	for _, url := range []string{
		"/v1/cluster/exchange?n=1000000&seed=1&p=8&nodes=2&to=1",
		"/v1/cluster/chunk?n=1000000&seed=1&start=0&len=1",
	} {
		if code, _ := rec(bounded.Handler(), url); code != http.StatusBadRequest {
			t.Errorf("%s on a MaxN=1000 node: status %d, want 400", url, code)
		}
	}
	// Negative values parse but are refused, naming the parameter.
	for _, url := range []string{
		"/v1/cluster/chunk?n=-5&seed=1&start=0&len=1",
		"/v1/cluster/chunk?n=100&seed=1&start=-1&len=1",
		"/v1/cluster/chunk?n=100&seed=1&start=0&len=-1",
		"/v1/cluster/exchange?n=-5&seed=1&p=8&nodes=2&from=0&to=1",
	} {
		code, body := rec(nds[0].Handler(), url)
		if code != http.StatusBadRequest || strings.Contains(body, "<nil>") {
			t.Errorf("%s: status %d, body %q; want 400 naming the parameter", url, code, body)
		}
	}
	// Overflowing len must be a 416, not a slice panic.
	resp, err := http.Get(fmt.Sprintf(
		"%s/v1/cluster/chunk?n=1000&seed=1&start=1&len=9223372036854775807", base))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("overflowing len: status %s, want 416", resp.Status)
	}
}

// TestPeerGrammar pins the exact 400 body of each query fault on the
// peer endpoints, which speak the public API's grammar (internal/query):
// a missing, malformed, negative or over-MaxN value, and a slot or node
// outside the cluster. The first fault is the one reported, and the
// exchange's config echo (409) comes before any of them.
func TestPeerGrammar(t *testing.T) {
	nd, err := New(Config{Peers: []string{"http://n0", "http://n1"}, Procs: 4, MaxN: 64})
	if err != nil {
		t.Fatal(err)
	}
	const chunk, exchange = "/v1/cluster/chunk?", "/v1/cluster/exchange?p=4&nodes=2&"
	const count = ": want a non-negative decimal integer"
	for _, c := range []struct{ url, want string }{
		{chunk + "seed=1&start=0&len=1", "missing n"},
		{chunk + "n=x&seed=1&start=0&len=1", `bad n="x"` + count},
		{chunk + "n=-5&seed=1&start=0&len=1", `bad n="-5"` + count},
		{chunk + "n=65&seed=1&start=0&len=1", "n=65 exceeds this node's bound 64"},
		{chunk + "n=10&start=0&len=1", "missing seed"},
		{chunk + "n=10&seed=-1&start=0&len=1", `bad seed "-1": want a decimal uint64`},
		{chunk + "n=10&seed=18446744073709551616&start=0&len=1", `bad seed "18446744073709551616": want a decimal uint64`},
		{chunk + "n=10&seed=1&len=1", "missing start"},
		{chunk + "n=10&seed=1&start=-1&len=1", `bad start="-1"` + count},
		{chunk + "n=10&seed=1&start=0", "missing len"},
		{chunk + "n=10&seed=1&start=0&len=9223372036854775808", `bad len="9223372036854775808"` + count},
		{chunk + "n=x&seed=y&start=z", `bad n="x"` + count},
		{exchange + "seed=1&from=0&to=1", "missing n"},
		{exchange + "n=65&seed=1&from=0&to=1", "n=65 exceeds this node's bound 64"},
		{exchange + "n=10&seed=x&from=0&to=1", `bad seed "x": want a decimal uint64`},
		{exchange + "n=10&seed=1&to=1", "missing from"},
		{exchange + "n=10&seed=1&from=-1&to=1", `bad from="-1"` + count},
		{exchange + "n=10&seed=1&from=2&to=1", "bad from=2: want a shard slot in [0, 2)"},
		{exchange + "n=10&seed=1&from=0", "missing to"},
		{exchange + "n=10&seed=1&from=0&to=x", `bad to="x"` + count},
		{exchange + "n=10&seed=1&from=0&to=2", "bad to=2: want a shard slot in [0, 2)"},
		{"/v1/cluster/join?hash=h", "missing node"},
		{"/v1/cluster/join?node=x", `bad node="x"` + count},
		{"/v1/cluster/join?node=-1", `bad node="-1"` + count},
		{"/v1/cluster/join?node=2", "bad node=2: want an index in [0, 2)"},
	} {
		w := httptest.NewRecorder()
		nd.Handler().ServeHTTP(w, httptest.NewRequest("GET", c.url, nil))
		if want := "cluster: " + c.want + "\n"; w.Code != http.StatusBadRequest || w.Body.String() != want {
			t.Errorf("%s: %d %q, want 400 %q", c.url, w.Code, w.Body.String(), want)
		}
	}
	w := httptest.NewRecorder()
	nd.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/cluster/exchange?p=3&nodes=2&n=x", nil))
	if w.Code != http.StatusConflict {
		t.Errorf("width mismatch with a bad n: status %d, want 409", w.Code)
	}
}

// TestChunkTrailingBytesRefused: a peer that answers a chunk request
// with more values than asked is refused like a short one — a
// *PeerError naming the peer and the chunk op — rather than read up to
// the asked length and trusted.
func TestChunkTrailingBytesRefused(t *testing.T) {
	const n, seed = 400, 9
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		length, err := strconv.Atoi(r.URL.Query().Get("len"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Write(make([]byte, 8*(length+1)))
	}))
	defer stub.Close()
	nd, err := New(Config{Self: 0, Peers: []string{"http://127.0.0.1:1", stub.URL}, Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := nd.ShardRange(n, 1)
	_, err = nd.Permuter(n, seed).Chunk(make([]int64, hi-lo), lo)
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("a peer answering len+1 values: err %v, want a *PeerError", err)
	}
	if pe.Node != 1 || pe.Op != "chunk" || !strings.Contains(pe.Err.Error(), "trailing bytes") {
		t.Errorf("PeerError = node %d op %s: %v, want node 1 op chunk, trailing bytes", pe.Node, pe.Op, pe.Err)
	}
}

// TestNewValidation covers the constructor's error paths.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no peers accepted")
	}
	if _, err := New(Config{Self: 2, Peers: []string{"a", "b"}}); err == nil {
		t.Error("out-of-range self accepted")
	}
	if _, err := New(Config{Self: 0, Peers: []string{"a", "b", "c"}, Procs: 2}); err == nil {
		t.Error("p < nodes accepted")
	}
}

// TestStatusAndMetrics: the introspection surfaces report the node's
// place and traffic.
func TestStatusAndMetrics(t *testing.T) {
	nds := bootCluster(t, 2, 4)
	buf := make([]int64, 50)
	if _, err := nds[0].Permuter(50, 9).Chunk(buf, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(nds[0].cfg.Peers[0] + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Node     int              `json:"node"`
		Nodes    int              `json:"nodes"`
		Procs    int              `json:"procs"`
		Resident []map[string]any `json:"resident_shards"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Node != 0 || st.Nodes != 2 || st.Procs != 4 {
		t.Fatalf("status identity wrong: %+v", st)
	}
	if len(st.Resident) != 1 || st.Counters["shard_builds"] != 1 {
		t.Fatalf("status shards wrong: %+v", st)
	}
	if st.Counters["proxied_requests"] == 0 {
		t.Fatalf("full-domain chunk proxied nothing: %+v", st.Counters)
	}
	var sb strings.Builder
	nds[1].met.Write(&sb)
	for _, want := range []string{
		"permd_cluster_exchange_requests_total 1",
		"permd_cluster_chunk_requests_total 1",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q in:\n%s", want, sb.String())
		}
	}
	if !nds[0].Permuter(50, 9).Materialized() {
		t.Error("built shard not reported Materialized")
	}
	if nds[0].Permuter(51, 9).Materialized() {
		t.Error("unbuilt shard reported Materialized")
	}
}

// BenchmarkClusterColdPull times a cold full pull at the cluster layer,
// with no text encoding in it: two loopback nodes, n = 10^6, p = 8, a
// fresh seed per op, the whole domain read through node 0's Permuter.
// Each op therefore runs both shard builds — every round-2 exchange leg
// included — plus the proxy hop for node 1's half.
func BenchmarkClusterColdPull(b *testing.B) {
	const n = 1_000_000
	nds := make([]*Node, 2)
	testkit.Loopback(b, 2, func(k int, peers []string) http.Handler {
		nd, err := New(Config{Self: k, Peers: peers, Procs: 8})
		if err != nil {
			b.Fatal(err)
		}
		nds[k] = nd
		return nd.Handler()
	})
	buf := make([]int64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nds[0].Permuter(n, uint64(i)+1).Chunk(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/item")
}
