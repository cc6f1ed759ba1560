package service

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"randperm/internal/harness/testkit"
)

// wallNs matches the samples whose values are wall-clock nanoseconds:
// the only part of a /metrics scrape a fixed request mix cannot pin.
var wallNs = regexp.MustCompile(`(?m)^(permd_chunk_ns_total|permd_epoch_ns_total|permd_chunk_ns_per_item|permd_cluster_shard_build_ns_total) \S+$`)

// checkMetricsGolden compares a scrape, wall-ns samples masked, with
// testdata/name byte for byte.
func checkMetricsGolden(t *testing.T, name, scrape string) {
	t.Helper()
	got := wallNs.ReplaceAllString(scrape, "$1 <ns>")
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics differs from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestMetricsGolden pins the whole single-node /metrics exposition —
// family names, HELP/TYPE lines, order, label sets and values — after a
// fixed request mix touching every endpoint and every counter path:
// cache hit/miss/eviction, a materialization, paged and atomic chunks,
// a quota refusal, both epoch modes and the validation errors.
func TestMetricsGolden(t *testing.T) {
	s := newTestServer(t, Config{
		Procs:      4,
		MaxHandles: 4,
		MaxChunk:   64,
		Quota:      QuotaConfig{Default: QuotaSpec{Rate: 1e6, Burst: 1000}},
	})
	for _, step := range []struct {
		method, path, body string
		code               int
	}{
		{"GET", "/v1/perm/1/chunk?n=100&len=10&backend=inplace", "", 200},
		{"GET", "/v1/perm/1/chunk?n=100&start=90&len=10&backend=inplace", "", 200},
		{"GET", "/v1/perm/2/chunk?n=1000&start=10&len=200", "", 200},
		{"GET", "/v1/perm/3/chunk?n=300&len=150&backend=cluster", "", 200},
		{"GET", "/v1/perm/3/chunk?n=0", "", 200},
		{"GET", "/v1/perm/1/chunk?n=-1", "", 400},
		{"GET", "/v1/perm/1/chunk?n=100&start=101", "", 400},
		{"GET", "/v1/perm/1/chunk?n=100&len=x", "", 400},
		{"GET", "/v1/perm/4/chunk?n=100000&len=5000", "", 429},
		{"GET", "/v1/perm/2/at?n=1000&i=7", "", 200},
		{"GET", "/v1/perm/2/at?n=1000&i=1000", "", 400},
		{"POST", "/v1/shuffle?seed=5", "a\nb\nc\nd\n", 200},
		{"GET", "/v1/sample?n=50&k=5&seed=6", "", 200},
		{"GET", "/v1/assign?seed=7&n=1000&id=3&spec=control:9,treat:1", "", 200},
		{"GET", "/v1/assign?seed=7&n=1000&id=4&spec=control:9,treat:1", "", 200},
		{"GET", "/v1/assign?seed=7&n=1000&id=1000&spec=control:9,treat:1", "", 400},
		{"GET", "/v1/epochs?seed=8&n=500&epoch=2&len=100", "", 200},
		{"GET", "/v1/epochs?seed=8&n=500&epoch=3&mode=recycled&start=450", "", 200},
		{"GET", "/v1/epochs?seed=8&n=500&start=501", "", 400},
		{"GET", "/healthz", "", 200},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(step.method, step.path, strings.NewReader(step.body)))
		if rec.Code != step.code {
			t.Fatalf("%s %s: status %d, want %d: %s", step.method, step.path, rec.Code, step.code, rec.Body.String())
		}
	}
	code, body := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	checkMetricsGolden(t, "metrics_single.golden", body)
}

// TestMetricsGoldenCluster pins the /metrics exposition of both nodes
// of a 2-node cluster after sharded chunk and point reads, including
// the permd_cluster_* families. Hedging is off so no timer can fire a
// replica read the mix did not ask for.
func TestMetricsGoldenCluster(t *testing.T) {
	servers := make([]*Server, 2)
	urls := testkit.Loopback(t, 2, func(k int, peers []string) http.Handler {
		s, err := New(Config{Procs: 4, ClusterPeers: peers, ClusterNode: k, ClusterHedge: -1})
		if err != nil {
			t.Fatal(err)
		}
		servers[k] = s
		return s
	})
	for _, step := range []struct {
		node int
		path string
		code int
	}{
		{0, "/v1/perm/1/chunk?n=200&len=200&backend=cluster", 200},
		{0, "/v1/perm/1/chunk?n=200&start=150&len=30&backend=cluster", 200},
		{1, "/v1/perm/1/at?n=200&i=3&backend=cluster", 200},
		{1, "/v1/perm/2/chunk?n=100&len=10", 200},
		{0, "/v1/perm/1/chunk?n=200&start=201&backend=cluster", 400},
	} {
		code, body := testkit.Get(t, urls[step.node].URL+step.path)
		if code != step.code {
			t.Fatalf("node %d %s: status %d, want %d: %s", step.node, step.path, code, step.code, body)
		}
	}
	// A peer's request event is published after its handler returns,
	// which can trail the response the requesting node already read:
	// wait for both buses to go quiet before scraping.
	for settled := 0; settled < 5; {
		before := servers[0].bus.Published() + servers[1].bus.Published()
		time.Sleep(10 * time.Millisecond)
		if servers[0].bus.Published()+servers[1].bus.Published() == before {
			settled++
		} else {
			settled = 0
		}
	}
	for k, name := range []string{"metrics_cluster_node0.golden", "metrics_cluster_node1.golden"} {
		code, body := testkit.Get(t, urls[k].URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("node %d /metrics: status %d", k, code)
		}
		checkMetricsGolden(t, name, body)
	}
}
