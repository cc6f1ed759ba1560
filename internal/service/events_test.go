package service

// End-to-end drills for the live event stream: the pinned per-request
// event sequence, filtering, resume, the subscriber cap, wedged-
// subscriber isolation (the "events are best-effort, bytes served
// never" contract), byte identity under subscribers, the cluster chaos
// drill, and the serving-overhead acceptance bound. Everything here
// talks to a real httptest server over TCP — the same path curl and
// permtop use.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"randperm/internal/events"
)

// dialEvents opens one GET /v1/events connection and returns the raw
// response without asserting on it. The caller owns resp.Body.
func dialEvents(t *testing.T, base, query string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/v1/events"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// sseConn is a draining SSE subscription: a reader goroutine parses
// frames into a buffered channel the test consumes with deadlines.
type sseConn struct {
	resp *http.Response
	ch   chan events.Event
}

func openEvents(t *testing.T, base, query string, hdr map[string]string) *sseConn {
	t.Helper()
	resp := dialEvents(t, base, query, hdr)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET /v1/events%s: status %d: %s", query, resp.StatusCode, body)
	}
	c := &sseConn{resp: resp, ch: make(chan events.Event, 1024)}
	t.Cleanup(func() { resp.Body.Close() })
	go func() {
		defer close(c.ch)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		var data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if data == "" {
					continue
				}
				var ev events.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					return
				}
				data = ""
				c.ch <- ev
			case strings.HasPrefix(line, "data:"):
				data = strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")
			}
		}
	}()
	return c
}

// next returns the next event or fails the test after timeout.
func (c *sseConn) next(t *testing.T, timeout time.Duration) events.Event {
	t.Helper()
	select {
	case ev, ok := <-c.ch:
		if !ok {
			t.Fatal("event stream closed early")
		}
		return ev
	case <-time.After(timeout):
		t.Fatal("no event within deadline")
	}
	panic("unreachable")
}

// expectNone fails if any event arrives within the window.
func (c *sseConn) expectNone(t *testing.T, window time.Duration) {
	t.Helper()
	select {
	case ev, ok := <-c.ch:
		if ok {
			t.Fatalf("unexpected event: %+v", ev)
		}
	case <-time.After(window):
	}
}

// TestEventsPinnedSequence pins the per-request event order for one
// materializing chunk: admission_queue (the build-gate resolution,
// published before the build starts) -> materialization (from inside
// the build) -> slow_request (from the middleware, after the handler
// returns — forced here by a nanosecond threshold). The order is
// structural, not scheduled: each publish happens-before the next
// stage begins, so the bus sequence numbers must agree.
func TestEventsPinnedSequence(t *testing.T) {
	s := newTestServer(t, Config{Events: EventsConfig{SlowThreshold: time.Nanosecond}})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close) // after the stream bodies close (cleanups are LIFO)

	c := openEvents(t, ts.URL, "?types=admission_queue,materialization,slow_request", nil)
	resp, err := http.Get(ts.URL + "/v1/perm/7/chunk?n=4096&len=16&backend=shmem")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk: status %d", resp.StatusCode)
	}

	adm := c.next(t, 5*time.Second)
	if adm.Type != events.TypeAdmissionQueue || adm.Detail != "admitted" {
		t.Fatalf("first event: got %+v, want admission_queue/admitted", adm)
	}
	if adm.N != 4096 || adm.Seed != 7 || adm.Backend != "shmem" {
		t.Errorf("admission names the wrong build: %+v", adm)
	}
	mat := c.next(t, 5*time.Second)
	if mat.Type != events.TypeMaterialization {
		t.Fatalf("second event: got %+v, want materialization", mat)
	}
	if mat.N != 4096 || mat.Seed != 7 || mat.Backend != "shmem" {
		t.Errorf("materialization names the wrong build: %+v", mat)
	}
	slow := c.next(t, 5*time.Second)
	if slow.Type != events.TypeSlowRequest {
		t.Fatalf("third event: got %+v, want slow_request", slow)
	}
	if slow.Endpoint != "/v1/perm/7/chunk" || slow.Items != 16 {
		t.Errorf("slow_request misdescribes the request: %+v", slow)
	}
	if !(adm.Seq < mat.Seq && mat.Seq < slow.Seq) {
		t.Errorf("sequence numbers out of order: %d, %d, %d", adm.Seq, mat.Seq, slow.Seq)
	}
	c.expectNone(t, 100*time.Millisecond)
}

// TestEventsFilter: ?types= narrows the stream server-side — a
// materialization-only subscriber sees the materialization and nothing
// else from a request that also publishes admission, request and (here)
// slow events. A bogus filter is a 400 before the subscription exists.
func TestEventsFilter(t *testing.T) {
	s := newTestServer(t, Config{Events: EventsConfig{SlowThreshold: time.Nanosecond}})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	c := openEvents(t, ts.URL, "?types=materialization", nil)
	resp, err := http.Get(ts.URL + "/v1/perm/9/chunk?n=2048&len=8&backend=inplace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ev := c.next(t, 5*time.Second)
	if ev.Type != events.TypeMaterialization {
		t.Fatalf("got %+v, want the materialization", ev)
	}
	c.expectNone(t, 150*time.Millisecond)

	bad := dialEvents(t, ts.URL, "?types=bogus", nil)
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("types=bogus: status %d, want 400", bad.StatusCode)
	}
}

// TestEventsResume: ?from=0 replays the ring from the first event, and
// the Last-Event-ID reconnect header takes precedence over ?from=.
func TestEventsResume(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	for i := 0; i < 3; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/perm/5/chunk?n=100&len=10&start=%d", ts.URL, i*10))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	head := s.bus.LastSeq()
	if head == 0 {
		t.Fatal("no events published by the warmup requests")
	}

	c := openEvents(t, ts.URL, "?from=0", nil)
	for want := uint64(1); want <= head; want++ {
		ev := c.next(t, 5*time.Second)
		if ev.Seq != want {
			t.Fatalf("replay from 0: seq %d, want %d", ev.Seq, want)
		}
	}

	c2 := openEvents(t, ts.URL, "?from=0", map[string]string{"Last-Event-ID": fmt.Sprint(head - 1)})
	if ev := c2.next(t, 5*time.Second); ev.Seq != head {
		t.Errorf("Last-Event-ID=%d must override from=0: first seq %d, want %d", head-1, ev.Seq, head)
	}
}

// TestEventsSubscriberCap: the cap answers 503 + Retry-After, and a
// disconnect frees the slot (and the handler goroutine) for the next
// subscriber.
func TestEventsSubscriberCap(t *testing.T) {
	s := newTestServer(t, Config{Events: EventsConfig{MaxSubscribers: 2}})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	baseline := runtime.NumGoroutine()

	first := dialEvents(t, ts.URL, "", nil)
	second := dialEvents(t, ts.URL, "", nil)
	defer second.Body.Close()
	if first.StatusCode != http.StatusOK || second.StatusCode != http.StatusOK {
		t.Fatalf("first two subscribers: %d, %d", first.StatusCode, second.StatusCode)
	}

	third := dialEvents(t, ts.URL, "", nil)
	if third.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third subscriber: status %d, want 503", third.StatusCode)
	}
	if third.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	third.Body.Close()

	// Disconnecting frees the slot: closing the first stream's body
	// cancels its request context, the handler returns, Subscribe
	// succeeds again.
	first.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := dialEvents(t, ts.URL, "", nil)
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after disconnect: still %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And the handler goroutines actually exit: close everything and
	// wait for the count to come back to the baseline's neighborhood.
	second.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d at baseline", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEventsWedgedSubscriber is the backpressure contract end-to-end:
// an SSE subscriber that never reads its connection must not slow or
// block serving — the bus drops its events instead, and the drops are
// visible in /metrics and /healthz.
func TestEventsWedgedSubscriber(t *testing.T) {
	s := newTestServer(t, Config{Events: EventsConfig{Buffer: 4}})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	wedged := dialEvents(t, ts.URL, "", nil)
	defer wedged.Body.Close()
	if wedged.StatusCode != http.StatusOK {
		t.Fatalf("subscriber: status %d", wedged.StatusCode)
	}
	// Never read wedged.Body: the SSE writer fills the socket and
	// stops draining its channel; with Buffer 4 the flood below must
	// overwhelm it however large the kernel's buffers are.
	const flood = 200000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < flood; i++ {
			s.bus.Publish(events.New(events.TypeCacheEvict))
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("publishing blocked behind the wedged subscriber")
	}

	// Serving is unaffected while the subscriber is still wedged.
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/v1/perm/3/chunk?n=1000000000&len=16&backend=bijective")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d behind a wedged subscriber: status %d", i, resp.StatusCode)
		}
	}

	if d := s.bus.Dropped(); d == 0 {
		t.Error("no drops counted after flooding a wedged subscriber")
	}
	_, metrics := get(t, s, "/metrics")
	if !strings.Contains(metrics, "permd_events_dropped_total") {
		t.Errorf("/metrics missing permd_events_dropped_total:\n%.400s", metrics)
	}
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "permd_events_dropped_total ") {
			if strings.TrimPrefix(line, "permd_events_dropped_total ") == "0" {
				t.Errorf("permd_events_dropped_total still 0 after the flood")
			}
		}
	}
}

// TestEventsByteIdentity: the bytes a chunk serves are identical with
// zero and eight live subscribers — the observation plane cannot touch
// the data plane.
func TestEventsByteIdentity(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	fetch := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/perm/11/chunk?n=65536&len=4096&backend=inplace")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return string(body)
	}

	quiet := fetch()
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			openEvents(t, ts.URL, "", nil) // draining subscriber
		} else {
			resp := dialEvents(t, ts.URL, "", nil) // wedged subscriber
			defer resp.Body.Close()
		}
	}
	if observed := fetch(); observed != quiet {
		t.Error("chunk bytes changed under event subscribers")
	}
}

// TestEventsChaosKillDrill: kill one node of a 2-node cluster and
// assert the survivor's event stream tells the story the error tells
// the client — a cluster_round "failed" event whose Round matches the
// round the PeerError names, and a peer_health_change demoting the
// dead peer.
func TestEventsChaosKillDrill(t *testing.T) {
	servers, proxies, _ := bootChaosServiceCluster(t, 2, Config{Procs: 4})
	c := openEvents(t, servers[0].URL, "?types=cluster_round,peer_health_change", nil)

	proxies[1].Kill()
	code, body := httpGet(t, servers[0].URL+"/v1/perm/3/chunk?n=500&len=500&backend=cluster")
	if code != http.StatusInternalServerError {
		t.Fatalf("chunk with a dead peer: status %d: %.120s", code, body)
	}
	if !strings.Contains(body, "node 1") {
		t.Fatalf("error does not name the dead peer: %.200s", body)
	}
	var wantRound int
	if _, err := fmt.Sscanf(body[strings.Index(body, "in round"):], "in round %d", &wantRound); err != nil {
		t.Fatalf("error does not name a round: %.200s", body)
	}

	var sawFailed, sawDemotion bool
	deadline := time.After(10 * time.Second)
	for !(sawFailed && sawDemotion) {
		var ev events.Event
		select {
		case ev = <-c.ch:
		case <-deadline:
			t.Fatalf("drill events incomplete: failed-round=%v demotion=%v", sawFailed, sawDemotion)
		}
		switch ev.Type {
		case events.TypeClusterRound:
			if ev.Detail == "failed" {
				if ev.Round != wantRound {
					t.Errorf("failed round event says round %d, PeerError says round %d", ev.Round, wantRound)
				}
				sawFailed = true
			}
		case events.TypePeerHealthChange:
			if ev.Peer == 1 && (ev.State == "suspect" || ev.State == "down") {
				sawDemotion = true
			}
		}
	}
}

// benchServeChunkEvents is BenchmarkServeChunk with `subs` live SSE
// subscribers attached and draining — the overhead-measurement twin of
// the quiet benchmark.
func benchServeChunkEvents(b *testing.B, subs int) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	for i := 0; i < subs; i++ {
		resp, err := http.Get(ts.URL + "/v1/events")
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("subscriber %d: status %d", i, resp.StatusCode)
		}
		defer resp.Body.Close()
		go io.Copy(io.Discard, resp.Body)
	}
	const chunkLen = 1 << 16
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (int64(i) * chunkLen) % (1 << 39)
		resp, err := client.Get(fmt.Sprintf("%s/v1/perm/42/chunk?n=1099511627776&start=%d&len=%d", ts.URL, start, chunkLen))
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

func BenchmarkServeChunkEvents0(b *testing.B) { benchServeChunkEvents(b, 0) }
func BenchmarkServeChunkEvents8(b *testing.B) { benchServeChunkEvents(b, 8) }

// TestEventsOverheadAcceptance holds the observation plane to its
// budget: serving a chunk with 8 live subscribers attached stays
// within 10% of serving with none. Loopback benchmarks are noisy, so
// a failing comparison re-measures before it condemns.
func TestEventsOverheadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark acceptance skipped with -short")
	}
	measure := func(subs int) float64 {
		r := testing.Benchmark(func(b *testing.B) { benchServeChunkEvents(b, subs) })
		return float64(r.NsPerOp())
	}
	const attempts = 3
	var quiet, observed float64
	for i := 1; i <= attempts; i++ {
		quiet = measure(0)
		observed = measure(8)
		if observed <= quiet*1.10 {
			return
		}
		t.Logf("attempt %d: %0.f ns/op quiet, %0.f ns/op with 8 subscribers", i, quiet, observed)
	}
	t.Errorf("8 subscribers cost %.1f%% (> 10%%): %0.f -> %0.f ns/op",
		100*(observed/quiet-1), quiet, observed)
}
