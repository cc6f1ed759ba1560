package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"randperm"
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
