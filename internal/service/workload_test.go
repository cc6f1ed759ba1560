package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"randperm/internal/harness/testkit"
	"randperm/internal/workload"
)

// metricValue scrapes one un-labeled counter out of /metrics.
func metricValue(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	_, body := get(t, s, "/metrics")
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in /metrics", name)
	return 0
}

// TestAssignDeterministicAcrossServers pins the /v1/assign determinism
// contract: the bucket is a pure function of (seed, spec, id, n) —
// byte-identical across server restarts (independent instances) and
// across every config knob that must not matter (Procs, MaxChunk), and
// equal to the workload library oracle.
func TestAssignDeterministicAcrossServers(t *testing.T) {
	const (
		spec = "control:8,treat:1,holdout:1"
		n    = int64(100000)
		seed = uint64(42)
	)
	sp, err := workload.ParseAssignSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	servers := []*Server{
		newTestServer(t, Config{}),
		newTestServer(t, Config{}),            // restart
		newTestServer(t, Config{Procs: 3}),    // different decomposition width
		newTestServer(t, Config{MaxChunk: 7}), // different paging
	}
	for id := int64(0); id < n; id += 9973 {
		_, want := workload.Assign(sp, seed, n, id)
		for i, s := range servers {
			code, body := get(t, s, "/v1/assign?seed=42&n=100000&id="+strconv.FormatInt(id, 10)+"&spec="+spec)
			if code != http.StatusOK {
				t.Fatalf("server %d id %d: status %d: %s", i, id, code, body)
			}
			if body != want+"\n" {
				t.Fatalf("server %d id %d: bucket %q, want %q", i, id, body, want)
			}
		}
	}
}

// TestAssignPointLookupsAreO1 is the acceptance criterion that assign
// never materializes: at n = 2^40 — far past any materialization bound
// — a burst of assigns triggers exactly one handle construction, zero
// materializations, and leaves both counters flat from then on.
func TestAssignPointLookupsAreO1(t *testing.T) {
	s := newTestServer(t, Config{})
	const path = "/v1/assign?seed=7&n=1099511627776&spec=control:9,treat:1&id="
	if code, body := get(t, s, path+"0"); code != http.StatusOK {
		t.Fatalf("first assign: %d %s", code, body)
	}
	misses := metricValue(t, s, "permd_handle_cache_misses_total")
	mats := metricValue(t, s, "permd_materializations_total")
	if misses != 1 || mats != 0 {
		t.Fatalf("after first assign: misses=%d materializations=%d, want 1 and 0", misses, mats)
	}
	for id := int64(1); id <= 50; id++ {
		if code, _ := get(t, s, path+strconv.FormatInt(id*1e9, 10)); code != http.StatusOK {
			t.Fatalf("assign %d failed", id)
		}
	}
	if got := metricValue(t, s, "permd_handle_cache_misses_total"); got != misses {
		t.Errorf("repeated assigns constructed handles: misses %d -> %d", misses, got)
	}
	if got := metricValue(t, s, "permd_materializations_total"); got != 0 {
		t.Errorf("assign materialized %d permutations at n=2^40", got)
	}
	if got := metricValue(t, s, "permd_assign_lookups_total"); got != 51 {
		t.Errorf("assign lookups counter = %d, want 51", got)
	}
}

// TestEpochChunkSplitByteIdentical: an epoch's bytes are a pure
// function of (seed, n, epoch, mode) — reassembling the stream from
// windows of any size, from servers with any MaxChunk, yields the
// identical bytes, in both derivation modes.
func TestEpochChunkSplitByteIdentical(t *testing.T) {
	const n = 500
	whole := newTestServer(t, Config{})
	for _, mode := range []string{"fresh", "recycled"} {
		q := "&mode=" + mode
		code, want := get(t, whole, "/v1/epochs?seed=9&n=500&epoch=4&len=500"+q)
		if code != http.StatusOK {
			t.Fatalf("mode %s: status %d", mode, code)
		}
		for _, split := range []int64{1, 7, 16, 499, 500} {
			s := newTestServer(t, Config{MaxChunk: 13}) // restart + odd paging
			var b strings.Builder
			for start := int64(0); start < n; start += split {
				length := min(split, n-start)
				code, part := get(t, s, "/v1/epochs?seed=9&n=500&epoch=4"+q+
					"&start="+strconv.FormatInt(start, 10)+"&len="+strconv.FormatInt(length, 10))
				if code != http.StatusOK {
					t.Fatalf("mode %s split %d at %d: status %d", mode, split, start, code)
				}
				b.WriteString(part)
			}
			if b.String() != want {
				t.Errorf("mode %s: split-%d reassembly differs from whole-stream bytes", mode, split)
			}
		}
	}
}

// TestWorkloadAcrossCluster: a 2-node permd cluster answers /v1/assign
// and /v1/epochs identically from either node — the workload contracts
// hold fleet-wide with no cross-node coordination, because every
// answer is derived, not stored.
func TestWorkloadAcrossCluster(t *testing.T) {
	servers := bootServiceCluster(t, 2, Config{Procs: 4})
	for _, path := range []string{
		"/v1/assign?seed=42&n=1000000&id=123456&spec=control:9,treat:1",
		"/v1/epochs?seed=7&n=200&epoch=5&len=200",
		"/v1/epochs?seed=7&n=200&epoch=5&mode=recycled&len=200",
	} {
		code0, body0 := httpGet(t, servers[0].URL+path)
		code1, body1 := httpGet(t, servers[1].URL+path)
		if code0 != http.StatusOK || code1 != http.StatusOK {
			t.Fatalf("%s: statuses %d, %d", path, code0, code1)
		}
		if body0 != body1 {
			t.Errorf("%s: node 0 and node 1 disagree:\n%q\n%q", path, body0, body1)
		}
	}
}

// TestWorkloadMetrics drives a known workload mix and checks the new
// counter families.
func TestWorkloadMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	get(t, s, "/v1/assign?seed=1&n=100&id=5&spec=a:1,b:1")
	get(t, s, "/v1/assign?seed=1&n=100&id=6&spec=a:1,b:1")
	get(t, s, "/v1/assign?seed=1&n=100&id=999&spec=a:1,b:1") // 400: id out of range
	get(t, s, "/v1/epochs?seed=1&n=64&epoch=0&len=64")
	get(t, s, "/v1/epochs?seed=1&n=64&epoch=1&mode=recycled&len=64")
	_, body := get(t, s, "/metrics")
	for _, want := range []string{
		`permd_requests_total{endpoint="assign"} 3`,
		`permd_requests_total{endpoint="epochs"} 2`,
		"permd_assign_lookups_total 2",
		"permd_epoch_items_total 128",
		"permd_epoch_recycled_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if metricValue(t, s, "permd_epoch_ns_total") <= 0 {
		t.Error("epoch ns counter did not advance")
	}
}

// TestEpocherMemoEviction: the per-(seed, mode) derivation memo is
// bounded, and eviction is invisible — keys are pure functions of
// (seed, epoch, mode), so a re-derived key equals the memoized one.
func TestEpocherMemoEviction(t *testing.T) {
	s := newTestServer(t, Config{})
	first := s.epocher(0, workload.EpochFresh).Key(3)
	// Blow past the memo bound with distinct seeds.
	for seed := uint64(1); seed <= maxEpochers+5; seed++ {
		s.epocher(seed, workload.EpochFresh)
	}
	if size := s.epochers.Len(); size > maxEpochers {
		t.Errorf("epocher memo grew to %d, bound %d", size, maxEpochers)
	}
	if again := s.epocher(0, workload.EpochFresh).Key(3); again != first {
		t.Errorf("re-derived key %#x differs from pre-eviction key %#x", again, first)
	}
}

// TestEpocherMemoKeepsHot: the memo evicts least recently used, so a
// deriver touched between every cold one survives any number of them
// and keeps its progress — the same *workload.Epocher, not a fresh one.
func TestEpocherMemoKeepsHot(t *testing.T) {
	s := newTestServer(t, Config{})
	hot := s.epocher(0, workload.EpochRecycled)
	for seed := uint64(1); seed <= maxEpochers+5; seed++ {
		s.epocher(seed, workload.EpochFresh)
		s.epocher(0, workload.EpochRecycled)
	}
	if again := s.epocher(0, workload.EpochRecycled); again != hot {
		t.Error("hot epoch deriver was evicted by colder ones")
	}
}

// TestEpochsServedMatchLibraryViaHeader closes the loop CI relies on:
// the Permd-Epoch-Key header names the bijection key, and the body is
// exactly that key's permutation as served by /v1/perm — so any
// observer can audit an epoch response against the core API.
func TestEpochsServedMatchLibraryViaHeader(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/epochs?seed=3&n=120&epoch=2&len=120", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("epochs: status %d", rec.Code)
	}
	key := rec.Header().Get("Permd-Epoch-Key")
	if key == "" {
		t.Fatal("no Permd-Epoch-Key header")
	}
	code, want := get(t, s, "/v1/perm/"+key+"/chunk?n=120&len=120&backend=bijective")
	if code != http.StatusOK {
		t.Fatalf("perm chunk for epoch key: status %d", code)
	}
	if rec.Body.String() != want {
		t.Error("epoch bytes differ from /v1/perm bytes for the advertised key")
	}
	// Cross-check the testkit path too: a loopback daemon serves the
	// same bytes the in-process router does.
	srv := testkit.Loopback(t, 1, func(int, []string) http.Handler { return s })[0]
	if code, body := testkit.Get(t, srv.URL+"/v1/epochs?seed=3&n=120&epoch=2&len=120"); code != http.StatusOK || body != rec.Body.String() {
		t.Errorf("loopback epoch bytes differ (status %d)", code)
	}
}

// BenchmarkAssign measures served assignment lookups end to end over
// loopback TCP — the figure BENCHMARKS.md quotes for /v1/assign. Each
// request is one O(1) bijection evaluation at n = 2^40.
func BenchmarkAssign(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := (int64(i) * 2654435761) % (1 << 40)
		resp, err := client.Get(ts.URL + "/v1/assign?seed=42&n=1099511627776&spec=control:9,treat:1&id=" + strconv.FormatInt(id, 10))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	perReq := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perReq, "ns/lookup")
	b.ReportMetric(1e9/perReq, "req/s")
}

// BenchmarkEpochChunk measures served epoch-shuffle throughput over
// loopback TCP, one 2^16-value page per request against a 2^30-item
// dataset, rotating epochs so key derivation and the handle cache are
// both in play.
func BenchmarkEpochChunk(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	const chunkLen = 1 << 16
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch := int64(i) % 4
		start := (int64(i) * chunkLen) % (1<<30 - chunkLen)
		resp, err := client.Get(fmt.Sprintf("%s/v1/epochs?seed=42&n=1073741824&epoch=%d&start=%d&len=%d", ts.URL, epoch, start, chunkLen))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	perReq := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perReq/chunkLen, "ns/item")
	b.ReportMetric(1e9/perReq, "req/s")
}
