package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"randperm"
	"randperm/internal/events"
	"randperm/internal/workload"
)

// FuzzChunkQuery drives the public query surface of /v1/perm/{seed}/chunk
// and /v1/perm/{seed}/at with arbitrary seeds, domain sizes, ranges and
// backends on a one-node server whose materialization bound is 4096. No
// input may panic the handler or draw a 5xx, every 400 must name the
// parameter it refuses, and every 200 body must be exactly the library's
// lines: ParallelShuffle over an identity on the materializing
// backends, Permuter.Chunk on bijective. Longer local runs:
//
//	go test -run='^$' -fuzz='^FuzzChunkQuery$' -fuzztime=60s ./internal/service
func FuzzChunkQuery(f *testing.F) {
	const maxN = 4096
	for _, c := range []struct {
		seed         string
		n, start, ln int64
		backend      string
	}{
		{"7", 100, 0, 100, "inplace"},
		{"0", 4096, 4000, 200, "shmem"},
		{"9223372036854775807", 1000, 999, 1, "sim"},
		{"9223372036854775808", 1000, 0, 1000, "cluster"},
		{"4611686018427387904", 1 << 62, 1<<62 - 3, 5, "bijective"},
		{"18446744073709551615", 4097, 0, 1, "shmem"},
		{"18446744073709551616", 10, 0, 10, ""},
		{"-1", -1, -1, -1, "nope"},
		{"x", 0, 0, 0, "feistel"},
		{"1", 0, 0, 0, "cluster"},
		{".", 6, -1, -1, "0"},
		{"", 6, 0, 6, "sim"},
	} {
		f.Add(c.seed, c.n, c.start, c.ln, c.backend)
	}
	s := newFuzzServer(f, Config{MaxN: maxN})
	f.Fuzz(func(t *testing.T, seed string, n, start, ln int64, backend string) {
		// The bijective backend serves any n, so bound the response the
		// handler will stream: a range of at most maxN values.
		if ln > maxN {
			ln %= maxN + 1
		}
		q := url.Values{}
		q.Set("n", strconv.FormatInt(n, 10))
		q.Set("start", strconv.FormatInt(start, 10))
		q.Set("len", strconv.FormatInt(ln, 10))
		if backend != "" {
			q.Set("backend", backend)
		}
		base := "/v1/perm/" + url.PathEscape(seed)
		checkQuery(t, s, base+"/chunk?"+q.Encode(), seed, n, start, ln)
		q.Del("start")
		q.Del("len")
		q.Set("i", strconv.FormatInt(start, 10))
		checkQuery(t, s, base+"/at?"+q.Encode(), seed, n, start, 1)
	})
}

func newFuzzServer(f *testing.F, cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	return s
}

// queryParams are the parameters a /v1/perm refusal may name.
var queryParams = []string{"seed", "n=", "negative n", "backend", "start=", "len=", "i="}

// checkQuery sends one request and holds its answer to the contract.
// length is the requested range length (1 for /at).
func checkQuery(t *testing.T, s *Server, target, seed string, n, start, length int64) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	body := rec.Body.String()
	switch {
	case rec.Code == http.StatusBadRequest:
		for _, p := range queryParams {
			if strings.Contains(body, p) {
				return
			}
		}
		t.Fatalf("%s: 400 names no parameter: %q", target, body)
	case rec.Code == http.StatusMovedPermanently || rec.Code == http.StatusNotFound:
		// The mux's own answers to a seed that is not one clean path
		// segment ("." or ""): a redirect to the cleaned path, or no
		// route at all.
		return
	case rec.Code != http.StatusOK:
		t.Fatalf("%s: status %d: %q", target, rec.Code, body)
	}
	backend, err := randperm.ParseBackend(rec.Header().Get("Permd-Backend"))
	if err != nil {
		t.Fatalf("%s: 200 without a backend header: %v", target, err)
	}
	sd, err := strconv.ParseUint(seed, 10, 64)
	if err != nil {
		t.Fatalf("%s: 200 for seed %q", target, seed)
	}
	if want := libraryLines(t, backend, sd, n, start, min(length, n-start)); body != want {
		t.Fatalf("%s: served %d bytes that differ from the library's %d", target, len(body), len(want))
	}
}

// libraryLines renders π(start) .. π(start+length-1) as the library
// computes it, one decimal per line, with the server's default Procs.
func libraryLines(t *testing.T, backend randperm.Backend, seed uint64, n, start, length int64) string {
	t.Helper()
	opt := randperm.Options{Procs: 8, Seed: seed, Backend: backend}
	vals := make([]int64, length)
	if backend == randperm.BackendBijective {
		pm, err := randperm.NewPermuter(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pm.Chunk(vals, start); err != nil {
			t.Fatal(err)
		}
	} else {
		id := make([]int64, n)
		for i := range id {
			id[i] = int64(i)
		}
		perm, _, err := randperm.ParallelShuffle(id, opt)
		if err != nil {
			t.Fatal(err)
		}
		copy(vals, perm[start:])
	}
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%d\n", v)
	}
	return b.String()
}

// FuzzWorkloadQuery drives the query surfaces of /v1/assign, /v1/epochs
// and /v1/sample with arbitrary values on a one-node server with a small
// MaxN, MaxEpoch and MaxChunk. No input may panic a handler or draw a
// 5xx, every 400 must name the parameter it refuses, and every 200 must
// be exactly the library's answer: the spec's bucket of the bijection's
// image of id, the chunk of the epoch key's bijection, and
// ParallelSample of an identity. Longer local runs:
//
//	go test -run='^$' -fuzz='^FuzzWorkloadQuery$' -fuzztime=60s ./internal/service
func FuzzWorkloadQuery(f *testing.F) {
	const maxN, maxEpoch, maxChunk = 256, 8, 64
	f.Add("7", "1000", "3", "", "", "control:9,treat:1", "", "")
	f.Add("", "256", "5", "250", "10", "a:1,b:2", "recycled", "bijective")
	f.Add("18446744073709551615", "4611686018427387904", "0", "4611686018427387900", "100000", "x:1", "fresh", "")
	f.Add("-1", "-1", "-1", "-1", "-1", "", "stale", "shmem")
	f.Add("1", "0", "9", "0", "0", "a:0", "", "quantum")
	f.Add("x", "257", "257", "1", "x", "a", "FRESH", "cluster")
	s := newFuzzServer(f, Config{MaxN: maxN, MaxEpoch: maxEpoch, MaxChunk: maxChunk})
	f.Fuzz(func(t *testing.T, seed, n, x, start, ln, spec, mode, backend string) {
		// The bijective backend serves any n, so bound the range an
		// epoch request may stream.
		if v, err := strconv.ParseInt(ln, 10, 64); err == nil && v > maxN {
			ln = strconv.FormatInt(v%(maxN+1), 10)
		}
		set := func(q url.Values, kv ...string) string {
			for i := 0; i < len(kv); i += 2 {
				if kv[i+1] != "" {
					q.Set(kv[i], kv[i+1])
				}
			}
			return q.Encode()
		}
		assign := "/v1/assign?" + set(url.Values{}, "seed", seed, "n", n, "id", x, "spec", spec, "backend", backend)
		if rec := workloadGet(t, s, assign, "seed", "n", "spec", "backend", "id="); rec != nil {
			nn, id := mustInt(t, n, 0), mustInt(t, x, 0)
			sp, err := workload.ParseAssignSpec(spec)
			if err != nil {
				t.Fatalf("%s: 200 for a spec the library refuses: %v", assign, err)
			}
			idx, name := sp.Find(nn, bijection(t, mustSeed(t, seed), nn, id, 1)[0])
			if rec.Body.String() != name+"\n" || rec.Header().Get("Permd-Bucket") != strconv.Itoa(idx) {
				t.Fatalf("%s: bucket %q (%s), want %q (%d)", assign, rec.Body.String(), rec.Header().Get("Permd-Bucket"), name, idx)
			}
		}
		epochs := "/v1/epochs?" + set(url.Values{}, "seed", seed, "n", n, "epoch", x, "mode", mode, "start", start, "len", ln, "backend", backend)
		if rec := workloadGet(t, s, epochs, "seed", "n", "epoch", "mode", "backend", "start=", "len="); rec != nil {
			nn, st := mustInt(t, n, 0), mustInt(t, start, 0)
			md, err := workload.ParseEpochMode(mode)
			if err != nil {
				t.Fatalf("%s: 200 for a mode the library refuses: %v", epochs, err)
			}
			key := workload.NewEpocher(mustSeed(t, seed), md).Key(mustInt(t, x, 0))
			length := min(mustInt(t, ln, min(maxChunk, nn-st)), nn-st)
			if want := libraryLines(t, randperm.BackendBijective, key, nn, st, length); rec.Body.String() != want {
				t.Fatalf("%s: served %d bytes that differ from the library's %d", epochs, rec.Body.Len(), len(want))
			}
		}
		sample := "/v1/sample?" + set(url.Values{}, "n", n, "k", x, "seed", seed)
		if rec := workloadGet(t, s, sample, "seed", "n", "k="); rec != nil {
			id := make([]int64, mustInt(t, n, 0))
			for i := range id {
				id[i] = int64(i)
			}
			vals, _, err := randperm.ParallelSample(id, mustInt(t, x, 0), randperm.Options{Procs: 8, Seed: mustSeed(t, seed)})
			if err != nil {
				t.Fatal(err)
			}
			if want := lines(vals); rec.Body.String() != want {
				t.Fatalf("%s: served %d bytes that differ from the library's %d", sample, rec.Body.Len(), len(want))
			}
		}
	})
}

// workloadGet sends one request and holds a refusal to the contract: a
// 400 names one of params, and nothing is a 5xx. It returns the
// recorder of a 200 for the caller's oracle, nil otherwise.
func workloadGet(t *testing.T, s *Server, target string, params ...string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	switch body := rec.Body.String(); {
	case rec.Code == http.StatusOK:
		return rec
	case rec.Code != http.StatusBadRequest:
		t.Fatalf("%s: status %d: %q", target, rec.Code, body)
	case !slices.ContainsFunc(params, func(p string) bool { return strings.Contains(body, p) }):
		t.Fatalf("%s: 400 names no parameter: %q", target, body)
	}
	return nil
}

// mustInt parses a value the server accepted, def when it is absent.
func mustInt(t *testing.T, v string, def int64) int64 {
	t.Helper()
	if v == "" {
		return def
	}
	x, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("200 for the integer %q", v)
	}
	return x
}

// mustSeed parses a seed the server accepted (0 when absent).
func mustSeed(t *testing.T, v string) uint64 {
	t.Helper()
	if v == "" {
		return 0
	}
	x, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		t.Fatalf("200 for the seed %q", v)
	}
	return x
}

// bijection returns π(start) .. π(start+length-1) of the bijective
// permutation (seed, n).
func bijection(t *testing.T, seed uint64, n, start, length int64) []int64 {
	t.Helper()
	pm, err := randperm.NewPermuter(n, randperm.Options{Procs: 8, Seed: seed, Backend: randperm.BackendBijective})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, length)
	if _, err := pm.Chunk(vals, start); err != nil {
		t.Fatal(err)
	}
	return vals
}

func lines(vals []int64) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%d\n", v)
	}
	return b.String()
}

// flushCanceler is a recorder whose Flush cancels the request: the
// events handler flushes right after it subscribes, so the stream ends
// at its first select.
type flushCanceler struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (f flushCanceler) Flush() {
	f.ResponseRecorder.Flush()
	f.cancel()
}

// FuzzEventsResume drives arbitrary Last-Event-ID headers, ?from= and
// ?types= values into /v1/events. No input may panic the handler; a
// malformed value is a 400 naming the header or parameter (types first,
// then the header, which outranks ?from=); anything else is a
// text/event-stream 200, and once its request is canceled the
// subscriber is gone. Longer local runs:
//
//	go test -run='^$' -fuzz='^FuzzEventsResume$' -fuzztime=60s ./internal/service
func FuzzEventsResume(f *testing.F) {
	f.Add("", "", "")
	f.Add("3", "x", "request")
	f.Add("", "0", "request,materialization")
	f.Add("x", "1", "")
	f.Add("", "-1", "")
	f.Add("18446744073709551616", "", "nope")
	f.Add(" 1", "", "request,,")
	s := newFuzzServer(f, Config{})
	f.Fuzz(func(t *testing.T, lastID, from, types string) {
		q := url.Values{}
		if from != "" {
			q.Set("from", from)
		}
		if types != "" {
			q.Set("types", types)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req := httptest.NewRequest(http.MethodGet, "/v1/events?"+q.Encode(), nil).WithContext(ctx)
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(flushCanceler{rec, cancel}, req)

		malformed := ""
		resume, resumeName := from, "from="
		if lid := req.Header.Get("Last-Event-ID"); lid != "" {
			resume, resumeName = lid, "Last-Event-ID"
		}
		if _, err := events.ParseFilter(types); err != nil {
			malformed = "types"
		} else if _, err := strconv.ParseUint(resume, 10, 64); resume != "" && err != nil {
			malformed = resumeName
		}
		body := rec.Body.String()
		switch {
		case malformed != "":
			if rec.Code != http.StatusBadRequest || !strings.Contains(body, malformed) {
				t.Fatalf("malformed %s: status %d %q, want a 400 naming it", malformed, rec.Code, body)
			}
		case rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "text/event-stream":
			t.Fatalf("status %d, Content-Type %q: %q; want an event stream", rec.Code, rec.Header().Get("Content-Type"), body)
		}
		if n := s.bus.Subscribers(); n != 0 {
			t.Fatalf("%d subscribers left after the stream ended", n)
		}
	})
}
