package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"randperm"
	"randperm/internal/engine"
	"randperm/internal/events"
	"randperm/internal/lru"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get performs one request against the handler and returns status + body.
func get(t *testing.T, s *Server, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// expectChunk renders what the chunk endpoint must emit for the given
// permutation range: the library's own Chunk output, one decimal per line.
func expectChunk(t *testing.T, n int64, opt randperm.Options, start, length int64) string {
	t.Helper()
	pm, err := randperm.NewPermuter(n, opt)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, length)
	m, err := pm.Chunk(vals, start)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, v := range vals[:m] {
		fmt.Fprintf(&b, "%d\n", v)
	}
	return b.String()
}

// TestChunkByteIdentical is the acceptance contract: for every backend,
// the HTTP chunk is byte-identical to Permuter.Chunk under the same
// (seed, n, backend) — including across a server restart, here two
// independently constructed Server instances.
func TestChunkByteIdentical(t *testing.T) {
	const (
		n            = int64(4096)
		seed         = uint64(42)
		start        = int64(1000)
		length int64 = 128
	)
	for _, backend := range []string{"sim", "shmem", "inplace", "bijective", "cluster"} {
		b, err := randperm.ParseBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		want := expectChunk(t, n, randperm.Options{Procs: 8, Seed: seed, Backend: b}, start, length)
		path := fmt.Sprintf("/v1/perm/%d/chunk?n=%d&start=%d&len=%d&backend=%s", seed, n, start, length, backend)
		for restart := 0; restart < 2; restart++ {
			s := newTestServer(t, Config{})
			code, body := get(t, s, path)
			if code != http.StatusOK {
				t.Fatalf("%s restart=%d: status %d: %s", backend, restart, code, body)
			}
			if body != want {
				t.Errorf("%s restart=%d: HTTP chunk differs from Permuter.Chunk\nhttp: %.60q...\nlib:  %.60q...",
					backend, restart, body, want)
			}
		}
	}
}

// TestChunkPaging drives len far past MaxChunk so the response must
// stream through several pooled buffer pages, and checks the seam-free
// result against one library chunk.
func TestChunkPaging(t *testing.T) {
	const n, seed = int64(10000), uint64(9)
	s := newTestServer(t, Config{MaxChunk: 64})
	want := expectChunk(t, n, randperm.Options{Procs: 8, Seed: seed, Backend: randperm.BackendBijective}, 0, n)
	code, body := get(t, s, fmt.Sprintf("/v1/perm/%d/chunk?n=%d&len=%d", seed, n, n))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if body != want {
		t.Errorf("paged response differs from single-chunk library output")
	}
}

// TestChunkDefaults: len defaults to min(MaxChunk, n-start), start to 0,
// backend to the server default; len is clamped to the end of the domain.
func TestChunkDefaults(t *testing.T) {
	s := newTestServer(t, Config{MaxChunk: 16})
	code, body := get(t, s, "/v1/perm/7/chunk?n=1000")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if got := strings.Count(body, "\n"); got != 16 {
		t.Errorf("default len: got %d lines, want MaxChunk=16", got)
	}
	// Clamp: ask for far more than remains.
	code, body = get(t, s, "/v1/perm/7/chunk?n=1000&start=995&len=100000")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if got := strings.Count(body, "\n"); got != 5 {
		t.Errorf("clamped len: got %d lines, want 5", got)
	}
}

// TestChunkIsPermutation pulls a whole small domain and checks the
// served values are exactly {0..n-1}.
func TestChunkIsPermutation(t *testing.T) {
	const n = 512
	s := newTestServer(t, Config{})
	code, body := get(t, s, fmt.Sprintf("/v1/perm/3/chunk?n=%d&len=%d", n, n))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	seen := make([]bool, n)
	lines := strings.Fields(body)
	if len(lines) != n {
		t.Fatalf("got %d values, want %d", len(lines), n)
	}
	for _, l := range lines {
		v, err := strconv.ParseInt(l, 10, 64)
		if err != nil || v < 0 || v >= n || seen[v] {
			t.Fatalf("bad or duplicate value %q", l)
		}
		seen[v] = true
	}
}

func TestChunkErrors(t *testing.T) {
	s := newTestServer(t, Config{MaxN: 1 << 10})
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/v1/perm/7/chunk", http.StatusBadRequest},                          // missing n
		{"/v1/perm/7/chunk?n=-1", http.StatusBadRequest},                     // negative n
		{"/v1/perm/7/chunk?n=100&start=101", http.StatusBadRequest},          // start past end
		{"/v1/perm/7/chunk?n=100&start=-1", http.StatusBadRequest},           // negative start
		{"/v1/perm/7/chunk?n=100&backend=nope", http.StatusBadRequest},       // unknown backend
		{"/v1/perm/not-a-seed/chunk?n=100", http.StatusBadRequest},           // bad seed
		{"/v1/perm/7/chunk?n=100000&backend=inplace", http.StatusBadRequest}, // MaxN gate
		{"/v1/perm/7/chunk?n=100000&backend=bijective", http.StatusOK},       // bijective exempt
		{"/v1/perm/7/chunk?n=100&len=abc", http.StatusBadRequest},            // bad len
		{"/v1/perm/7/chunk?n=100&len=-3", http.StatusBadRequest},             // explicit negative len
		{"/v1/perm/7/at?n=100&i=100", http.StatusBadRequest},                 // i out of range
		{"/v1/perm/7/at?n=100", http.StatusBadRequest},                       // missing i
		{"/v1/sample?k=5", http.StatusBadRequest},                            // missing n
		{"/v1/sample?n=10&k=11", http.StatusBadRequest},                      // k > n
		{"/v1/sample?n=2000&k=1", http.StatusBadRequest},                     // MaxN gate
		{"/nope", http.StatusNotFound},
	} {
		code, body := get(t, s, tc.path)
		if code != tc.code {
			t.Errorf("GET %s: status %d, want %d (%s)", tc.path, code, tc.code, strings.TrimSpace(body))
		}
	}
}

// TestAt checks the point query against the library for every backend,
// plus the O(1)-on-huge-domains property for bijective.
func TestAt(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, backend := range []string{"sim", "shmem", "inplace", "bijective", "cluster"} {
		b, _ := randperm.ParseBackend(backend)
		pm, err := randperm.NewPermuter(1000, randperm.Options{Procs: 8, Seed: 5, Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		code, body := get(t, s, "/v1/perm/5/at?n=1000&i=123&backend="+backend)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", backend, code, body)
		}
		if want := fmt.Sprintf("%d\n", pm.At(123)); body != want {
			t.Errorf("%s: at=%q want %q", backend, body, want)
		}
	}
	// The bijective point query must work far past MaxN.
	code, body := get(t, s, "/v1/perm/5/at?n=1099511627776&i=99999999999")
	if code != http.StatusOK {
		t.Fatalf("huge-domain at: status %d: %s", code, body)
	}
}

// TestShuffleText: the shuffled lines are the library's exactly-uniform
// shuffle of the input under the same options, and a fixed seed replays.
func TestShuffleText(t *testing.T) {
	s := newTestServer(t, Config{})
	lines := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	body := strings.Join(lines, "\n") + "\n"

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/shuffle?seed=11", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	want, _, err := randperm.ParallelShuffle(lines, randperm.Options{
		Procs: 6, Seed: 11, Backend: randperm.BackendSharedMem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.String(); got != strings.Join(want, "\n")+"\n" {
		t.Errorf("shuffle: got %q want %q", got, want)
	}
}

// failingWriter is a ResponseWriter whose client is gone: every body
// write fails.
type failingWriter struct{ h http.Header }

func (f *failingWriter) Header() http.Header {
	if f.h == nil {
		f.h = http.Header{}
	}
	return f.h
}
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("client went away") }
func (f *failingWriter) WriteHeader(int)           {}

// TestWriteFailureNotCounted: a response that never reaches the client
// counts nothing served — not in the items metric, not in the
// endpoint's own counters (/v1/assign's lookups, /v1/epochs' recycled
// requests), not on the request event — on every serving endpoint:
// /v1/shuffle in both body formats, /v1/assign, chunk, at, /v1/sample
// and a recycled-mode /v1/epochs.
func TestWriteFailureNotCounted(t *testing.T) {
	s := newTestServer(t, Config{})
	sub, err := s.bus.Subscribe(events.All(), s.bus.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for _, tc := range []struct{ name, method, path, contentType, body string }{
		{"shuffle text", "POST", "/v1/shuffle?seed=11", "text/plain", "alpha\nbravo\ncharlie\n"},
		{"shuffle json", "POST", "/v1/shuffle?seed=11", "application/json", `["alpha","bravo","charlie"]`},
		{"assign", "GET", "/v1/assign?seed=11&n=1000&id=7&spec=control:1,treat:1", "", ""},
		{"chunk", "GET", "/v1/perm/11/chunk?n=1000&len=100", "", ""},
		{"at", "GET", "/v1/perm/11/at?n=1000&i=7", "", ""},
		{"sample", "GET", "/v1/sample?n=100&k=10&seed=11", "", ""},
		{"epochs recycled", "GET", "/v1/epochs?seed=11&n=1000&epoch=2&mode=recycled&len=100", "", ""},
	} {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		if tc.contentType != "" {
			req.Header.Set("Content-Type", tc.contentType)
		}
		s.ServeHTTP(&failingWriter{}, req)
		if got := s.met.items.Load(); got != 0 {
			t.Errorf("%s: items metric counts %d undelivered items", tc.name, got)
		}
		if got := s.met.assignLookups.Load(); got != 0 {
			t.Errorf("%s: assign lookups metric counts %d undelivered lookups", tc.name, got)
		}
		if got := s.met.epochRecycled.Load(); got != 0 {
			t.Errorf("%s: recycled epochs metric counts %d undelivered requests", tc.name, got)
		}
		ev := <-sub.Events()
		if ev.Type != events.TypeRequest || ev.Items != 0 {
			t.Errorf("%s: request event %v reports %d items, want 0", tc.name, ev.Type, ev.Items)
		}
	}
}

// TestShuffleJSON round-trips a JSON array and verifies it is a
// permutation of the input.
func TestShuffleJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	// A parameterized media type must still be recognized as JSON — it is
	// what axios and most HTTP clients actually send.
	req := httptest.NewRequest("POST", "/v1/shuffle?seed=3&backend=inplace",
		strings.NewReader(`[1, "two", {"three": 3}, null, 5]`))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out []any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("response is not a JSON array: %v", err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d elements, want 5", len(out))
	}
}

// TestShuffleGate: the exactness-sensitive endpoint refuses every
// backend whose ExactUniform() is false.
func TestShuffleGate(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/shuffle?backend=bijective", strings.NewReader("a\nb\n")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bijective shuffle: status %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "not exactly uniform") {
		t.Errorf("gate error should explain the refusal, got %q", rec.Body.String())
	}
}

// TestSample checks the service sample equals ParallelSample and stays
// inside the domain.
func TestSample(t *testing.T) {
	s := newTestServer(t, Config{})
	code, body := get(t, s, "/v1/sample?n=1000&k=10&seed=21")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	data := make([]int64, 1000)
	for i := range data {
		data[i] = int64(i)
	}
	want, _, err := randperm.ParallelSample(data, 10, randperm.Options{Procs: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var wantB strings.Builder
	for _, v := range want {
		fmt.Fprintf(&wantB, "%d\n", v)
	}
	if body != wantB.String() {
		t.Errorf("sample: got %q want %q", body, wantB.String())
	}
}

// TestDecimalWriter: the page writer emits exactly strconv's decimal
// lines — every digit count, both signs, the int64 extremes, and the
// edges of the encoder's 8-digit groups (8/9 digits: one group or two;
// 16/17: two or three; 19: the longest non-negative line), with zeros
// inside the full groups, and neighbours of mixed lengths and signs
// formatted as one pair — for any page size down to a single line and
// any split of the values into write calls.
func TestDecimalWriter(t *testing.T) {
	vals := []int64{
		// Mixed-length neighbours, first so that they are pairs: 1 digit
		// and 19, 1 and 8, 9 and 1, 8 and 9, 16 and 17, 16 and 1, a
		// negative and a positive either way round, and MaxInt64 in
		// either place.
		7, 1_000_000_000_000_000_001, 5, 12_345_678, 123_456_789, 4,
		12_345_678, 123_456_789, 1_234_567_890_123_456, 12_345_678_901_234_567,
		9_999_999_999_999_999, 3, -42, 42, 42, -7, math.MaxInt64, 6, 8, math.MaxInt64,
		0, 1, -1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		99_999_999, 100_000_000, 100_000_001, 10_000_000_012_345_678,
		9_999_999_999_999_999, 10_000_000_000_000_000, 10_000_000_100_000_001,
		1_000_000_000_000_000_000, 1_234_567_890_123_456_789}
	for p := int64(1); p <= 1e18; p *= 10 {
		vals = append(vals, p-1, p, p+1, -p)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 5000 {
		vals = append(vals, int64(rng.Uint64()>>rng.IntN(64)), int64(rng.Uint64()>>rng.IntN(64)), -rng.Int64N(1<<40))
	}
	var want []byte
	for _, v := range vals {
		want = append(strconv.AppendInt(want, v, 10), '\n')
	}
	for _, pageCap := range []int{maxDecimalLine, 2 * maxDecimalLine, 64, 1 << 15} {
		for _, split := range []int{1, 2, 7, len(vals)} {
			var got strings.Builder
			dw := newDecimalWriter(&got, make([]byte, 0, pageCap))
			for rest := vals; len(rest) > 0; {
				m := min(split, len(rest))
				if err := dw.write(rest[:m]); err != nil {
					t.Fatal(err)
				}
				rest = rest[m:]
			}
			if err := dw.flush(); err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Fatalf("page %d, split %d: output differs from strconv", pageCap, split)
			}
		}
	}
}

// flakyWriter accepts ok writes and fails every one after them.
type flakyWriter struct {
	ok, writes int
	b          strings.Builder
}

func (f *flakyWriter) Write(p []byte) (int, error) {
	if f.writes++; f.writes > f.ok {
		return 0, errors.New("client went away")
	}
	return f.b.Write(p)
}

// TestWriteLinesOrdered: the ordered parallel tail writes exactly what
// one decimalWriter writes, for ranges shorter than a piece, of whole
// pieces and not a multiple of one, on one goroutine, on four, with
// more procs than tailWorkers and with none; pages sized for the values' bound n
// and pages sized for a bound the values overrun (n = 10, and negative
// values for n = MaxInt64) give the same bytes, at either width. It stops at the first
// failed write or at a canceled context, and no helper outlives the
// call either way.
func TestWriteLinesOrdered(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	vals := make([]int64, 10*tailPiece+77) // three pieces for helper 1 at four workers
	for i := range vals {
		vals[i] = int64(rng.Uint64() >> rng.IntN(64))
	}
	baseline := runtime.NumGoroutine()
	for _, procs := range []int{1, 4, 8, 0} {
		for _, m := range []int{0, 1, tailPiece - 1, tailPiece, 2 * tailPiece, len(vals)} {
			var want strings.Builder
			dw := newDecimalWriter(&want, make([]byte, 0, 1<<15))
			if dw.write(vals[:m]) != nil || dw.flush() != nil {
				t.Fatal("write to a strings.Builder failed")
			}
			for _, n := range []int64{math.MaxInt64, 10} {
				var got strings.Builder
				if err := writeLinesOrdered(context.Background(), &got, vals[:m], n, procs); err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() {
					t.Errorf("procs %d, %d values, n %d: output differs from decimalWriter's", procs, m, n)
				}
			}
			// The 4-byte form a cluster range buffers writes what its
			// widened values do, negatives included.
			narrow, widened := make([]int32, m), make([]int64, m)
			for i, v := range vals[:m] {
				narrow[i] = int32(v)
				widened[i] = int64(narrow[i])
			}
			var want32, got32 strings.Builder
			dw = newDecimalWriter(&want32, make([]byte, 0, 1<<15))
			if dw.write(widened) != nil || dw.flush() != nil {
				t.Fatal("write to a strings.Builder failed")
			}
			if err := writeLinesOrdered(context.Background(), &got32, narrow, math.MaxInt32, procs); err != nil {
				t.Fatal(err)
			}
			if got32.String() != want32.String() {
				t.Errorf("procs %d, %d int32 values: output differs from decimalWriter's", procs, m)
			}
		}
		fw := &flakyWriter{ok: 2}
		if err := writeLinesOrdered(context.Background(), fw, vals, math.MaxInt64, procs); err == nil || fw.writes != 3 {
			t.Errorf("procs %d: failing writer: err %v after %d writes, want an error after 3", procs, err, fw.writes)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		fw = &flakyWriter{ok: len(vals)}
		if err := writeLinesOrdered(ctx, fw, vals, math.MaxInt64, procs); !errors.Is(err, context.Canceled) || fw.writes != 0 {
			t.Errorf("procs %d: canceled context: err %v after %d writes, want context.Canceled after 0", procs, err, fw.writes)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, baseline %d — a formatting helper outlived its call", runtime.NumGoroutine(), baseline)
		}
	}
}

// BenchmarkDecimalWriter measures the served path's encoder alone: a
// 64Ki-value page formatted into io.Discard through a 32 KiB page, for
// 13-digit values (a 2^40 domain, the chunk-warm benchmark's request),
// 7-digit values, and values uniform in [0, 10^6) — mixed lengths,
// cluster-cold's value range.
func BenchmarkDecimalWriter(b *testing.B) {
	for _, tc := range []struct {
		name   string
		lo, hi int64 // values uniform in [lo, hi)
	}{
		{"digits=13", 1e12, 1e13},
		{"digits=7", 1e6, 1e7},
		{"uniform=1e6", 0, 1e6},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(3, 4))
			vals := make([]int64, 1<<16)
			var text int64
			for i := range vals {
				vals[i] = tc.lo + rng.Int64N(tc.hi-tc.lo)
				text += int64(len(strconv.FormatInt(vals[i], 10)) + 1)
			}
			dw := newDecimalWriter(io.Discard, make([]byte, 0, 1<<15))
			b.SetBytes(text)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dw.write(vals) != nil || dw.flush() != nil {
					b.Fatal("write to io.Discard failed")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
		})
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{Procs: 4})
	code, body := get(t, s, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var h map[string]any
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if h["status"] != "ok" || h["procs"] != float64(4) || h["default_backend"] != "bijective" {
		t.Errorf("healthz fields wrong: %v", h)
	}
	if k := h["feistel_kernel"]; k != engine.FeistelKernel() || (k != "avx512" && k != "generic") {
		t.Errorf("healthz feistel_kernel = %v, want %q", k, engine.FeistelKernel())
	}
}

// TestMetrics drives a known request mix and checks the counters that
// come back out of /metrics.
func TestMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	get(t, s, "/v1/perm/1/chunk?n=100&len=10&backend=inplace") // miss + materialize
	get(t, s, "/v1/perm/1/chunk?n=100&len=10&backend=inplace") // hit
	get(t, s, "/v1/perm/1/chunk?n=0")                          // miss (different key)
	get(t, s, "/v1/perm/1/chunk?n=-1")                         // error
	code, body := get(t, s, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		`permd_requests_total{endpoint="chunk"} 4`,
		"permd_request_errors_total 1",
		"permd_handle_cache_hits_total 1",
		"permd_handle_cache_misses_total 2",
		"permd_materializations_total 1",
		"permd_chunk_items_total 20",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// TestErrorsCounted: permd_request_errors_total counts every 4xx/5xx
// answer exactly once, including the 404 and 405 answers of requests no
// route matched, which never reach a handler.
func TestErrorsCounted(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, tc := range []struct {
		method, path string
		code         int
		errors       int64
	}{
		{"GET", "/nope", http.StatusNotFound, 1},
		{"POST", "/v1/perm/1/chunk?n=10", http.StatusMethodNotAllowed, 1},
		{"GET", "/v1/shuffle", http.StatusMethodNotAllowed, 1},
		{"GET", "/v1/perm/1/chunk?n=-1", http.StatusBadRequest, 1},
		{"GET", "/v1/perm/1/chunk?n=10", http.StatusOK, 0},
		{"GET", "/healthz", http.StatusOK, 0},
	} {
		before := s.met.errors.Load()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.code {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.code)
		}
		if got := s.met.errors.Load() - before; got != tc.errors {
			t.Errorf("%s %s: counted %d errors, want %d", tc.method, tc.path, got, tc.errors)
		}
	}
}

// TestMetricsExposition pins what the /metrics goldens cannot show,
// since their fixed request mix only produces small values: integer
// samples print as digits however large, the two ratio gauges print
// with %g, labeled samples print in a fixed order, and a family
// declared only under a condition is absent without it.
func TestMetricsExposition(t *testing.T) {
	quota := QuotaConfig{Default: QuotaSpec{Rate: 1, Burst: 1}}
	for _, tc := range []struct {
		name          string
		cfg           Config
		record        func(m *instruments)
		want, missing []string
	}{
		{"integer counter", Config{}, func(m *instruments) { m.items.Add(2_000_000) },
			[]string{"\npermd_items_total 2000000\n"}, nil},
		{"integer gauge", Config{}, func(m *instruments) { m.admissionInflight.Add(1_000_000) },
			[]string{"\npermd_admission_builds_inflight 1000000\n"}, nil},
		{"hit rate ratio", Config{}, func(m *instruments) { m.cacheHits.Add(1); m.cacheMisses.Add(2) },
			[]string{"\npermd_handle_cache_hit_rate 0.3333333333333333\n"}, nil},
		{"ns per item ratio", Config{}, func(m *instruments) { m.chunk.ns.Add(3_000_000); m.chunk.items.Add(1) },
			[]string{"\npermd_chunk_ns_per_item 3e+06\n"}, nil},
		{"label order", Config{}, func(m *instruments) { m.requests.With("shuffle").Add(1_000_000) },
			[]string{`
permd_requests_total{endpoint="assign"} 0
permd_requests_total{endpoint="at"} 0
permd_requests_total{endpoint="chunk"} 0
permd_requests_total{endpoint="epochs"} 0
permd_requests_total{endpoint="events"} 0
permd_requests_total{endpoint="healthz"} 0
permd_requests_total{endpoint="metrics"} 1
permd_requests_total{endpoint="sample"} 0
permd_requests_total{endpoint="shuffle"} 1000000
`}, nil},
		{"quota off", Config{}, func(*instruments) {}, nil, []string{"permd_quota_clients"}},
		{"quota on", Config{Quota: quota}, func(*instruments) {},
			[]string{"\n# TYPE permd_quota_clients gauge\npermd_quota_clients 0\n"}, nil},
	} {
		s := newTestServer(t, tc.cfg)
		tc.record(&s.met)
		_, body := get(t, s, "/metrics")
		for _, want := range tc.want {
			if !strings.Contains(body, want) {
				t.Errorf("%s: /metrics lacks %q:\n%s", tc.name, want, body)
			}
		}
		for _, name := range tc.missing {
			if strings.Contains(body, name) {
				t.Errorf("%s: /metrics carries %s:\n%s", tc.name, name, body)
			}
		}
	}
}

// TestConcurrentSameKey is the acceptance test: 1000 concurrent requests
// for one cached handle on a materializing backend must all serve the
// identical bytes while triggering exactly one handle construction and
// exactly one materialization. Run under -race this also shakes the
// single-flight seam and the pooled buffers.
func TestConcurrentSameKey(t *testing.T) {
	const (
		clients = 1000
		n       = int64(1 << 15)
	)
	s := newTestServer(t, Config{})
	want := expectChunk(t, n, randperm.Options{Procs: 8, Seed: 77, Backend: randperm.BackendInPlace}, 0, 64)
	path := fmt.Sprintf("/v1/perm/77/chunk?n=%d&len=64&backend=inplace", n)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
				return
			}
			if rec.Body.String() != want {
				errs <- errors.New("response differs from library chunk")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.met.materializations.Load(); got != 1 {
		t.Errorf("materializations = %d, want exactly 1 for %d concurrent requests", got, clients)
	}
	if got := s.met.cacheMisses.Load(); got != 1 {
		t.Errorf("cache misses = %d, want exactly 1", got)
	}
	if got := s.met.cacheHits.Load(); got != clients-1 {
		t.Errorf("cache hits = %d, want %d", got, clients-1)
	}
}

// TestCacheEviction: a capacity-1 LRU serving two alternating keys must
// evict every time the key flips, and re-materialize on return.
func TestCacheEviction(t *testing.T) {
	s := newTestServer(t, Config{MaxHandles: 1})
	a := "/v1/perm/1/chunk?n=64&len=4&backend=inplace"
	b := "/v1/perm/2/chunk?n=64&len=4&backend=inplace"
	var first string
	for i, path := range []string{a, b, a} {
		code, body := get(t, s, path)
		if code != http.StatusOK {
			t.Fatalf("req %d: status %d", i, code)
		}
		if i == 0 {
			first = body
		}
	}
	if code, body := get(t, s, a); code != http.StatusOK || body != first {
		t.Errorf("re-materialized handle must serve identical bytes")
	}
	if got := s.met.cacheEvictions.Load(); got < 2 {
		t.Errorf("evictions = %d, want >= 2", got)
	}
	if got := s.met.materializations.Load(); got != 3 {
		// a (build), b (build, evicts a), a (build again), a (hit) -> 3.
		t.Errorf("materializations = %d, want 3", got)
	}
}

// TestRefusedRequestsSkipCache: a /v1/perm/* request refused 400 for
// its range or index, or 429 by the quota, resolves no handle — it
// neither inserts a cache entry nor evicts the hot one from a
// capacity-1 cache — yet its request event still names the permutation
// it asked for, with no cache outcome.
func TestRefusedRequestsSkipCache(t *testing.T) {
	s := newTestServer(t, Config{MaxHandles: 1, Quota: QuotaConfig{Default: QuotaSpec{Rate: 1, Burst: 1000}}})
	warm := "/v1/perm/1/chunk?n=100&len=4"
	if code, _ := get(t, s, warm); code != http.StatusOK {
		t.Fatalf("warming: status %d", code)
	}
	sub, err := s.bus.Subscribe(events.TypeSet(0).With(events.TypeRequest), s.bus.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	for _, tc := range []struct {
		path string
		code int
		seed uint64
	}{
		{"/v1/perm/2/chunk?n=100&start=101", http.StatusBadRequest, 2},
		{"/v1/perm/3/at?n=100&i=100", http.StatusBadRequest, 3},
		{"/v1/perm/4/chunk?n=100000&len=5000", http.StatusTooManyRequests, 4},
	} {
		if code, body := get(t, s, tc.path); code != tc.code {
			t.Fatalf("%s: status %d, want %d: %s", tc.path, code, tc.code, body)
		}
		ev := <-sub.Events()
		if ev.Seed != tc.seed || ev.N == 0 || ev.Backend != "bijective" || ev.Cache != "" {
			t.Errorf("%s: request event seed=%d n=%d backend=%q cache=%q, want seed %d, its n, bijective and no cache outcome",
				tc.path, ev.Seed, ev.N, ev.Backend, ev.Cache, tc.seed)
		}
	}
	if code, _ := get(t, s, warm); code != http.StatusOK {
		t.Fatalf("re-reading: status %d", code)
	}
	if hits, misses, evictions := s.met.cacheHits.Load(), s.met.cacheMisses.Load(), s.met.cacheEvictions.Load(); hits != 1 || misses != 1 || evictions != 0 {
		t.Errorf("cache hits/misses/evictions = %d/%d/%d, want 1/1/0: the refused requests touched the cache", hits, misses, evictions)
	}
}

// TestCacheErrorNotCached: a failed construction must not poison the
// key; the next request retries and can succeed.
func TestCacheErrorNotCached(t *testing.T) {
	calls := 0
	c := lru.New[handleKey, handle](4, nil)
	key := handleKey{n: 10, seed: 1, backend: randperm.BackendBijective}
	build := func() (handle, error) {
		calls++
		if calls == 1 {
			return nil, errors.New("transient")
		}
		return randperm.NewPermuter(key.n, randperm.Options{Seed: key.seed, Backend: key.backend})
	}
	if _, _, err := c.Get(key, build); err == nil {
		t.Fatal("want error from first build")
	}
	if _, _, err := c.Get(key, build); err != nil {
		t.Fatalf("second build should retry and succeed, got %v", err)
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2", calls)
	}
}

// BenchmarkServeChunk measures the full HTTP path over a real TCP
// loopback at n = 2^40: the figure BENCHMARKS.md's serving section and
// BENCH_backends.json track (req/s and ns/item through the daemon).
func BenchmarkServeChunk(b *testing.B) {
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
