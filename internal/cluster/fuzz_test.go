// Native fuzz target for the round-2 exchange decoder — the one parser
// in the cluster that reads bytes a peer chose. CI runs it for a short
// -fuzztime as a smoke pass; longer local runs:
//
//	go test -run='^$' -fuzz=FuzzDecodeExchange -fuzztime=60s ./internal/cluster
package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http/httptest"
	"runtime"
	"testing"

	"randperm/internal/commat"
	"randperm/internal/core"
	"randperm/internal/engine"
)

// testLeg is the fixed leg the decoder tests and the fuzz target use:
// source slot 1 -> target slot 0 of (seed 5, n 300, p 6) on 3 nodes.
var testLeg = exchangeLeg{seed: 5, n: 300, p: 6, nodes: 3, from: 1, to: 0}

// validLeg returns the leg's response body as node 1 serves it, with
// the local matrix a decoder verifies it against and the largest entry
// of the leg's matrix block.
func validLeg(tb testing.TB) (body []byte, a *commat.Matrix, maxA int64) {
	tb.Helper()
	nd, err := New(Config{Self: 1, Peers: []string{"http://n0", "http://n1", "http://n2"}, Procs: testLeg.p})
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	nd.Handler().ServeHTTP(rec, httptest.NewRequest("GET",
		"/v1/cluster/exchange?n=300&seed=5&p=6&nodes=3&from=1&to=0", nil))
	if rec.Code != 200 {
		tb.Fatalf("serving the leg: %d %s", rec.Code, rec.Body)
	}
	sizes := core.EvenBlocks(testLeg.n, testLeg.p)
	a = commat.SampleSeq(engine.CGMStreams(testLeg.seed, testLeg.p)[0], sizes, sizes)
	sLo, sHi := blockSpan(testLeg.p, testLeg.nodes, testLeg.from)
	tLo, tHi := blockSpan(testLeg.p, testLeg.nodes, testLeg.to)
	for i := sLo; i < sHi; i++ {
		for j := tLo; j < tHi; j++ {
			maxA = max(maxA, a.At(i, j))
		}
	}
	return rec.Body.Bytes(), a, maxA
}

// decodeTestLeg decodes body as testLeg into scratch segments and
// reports the heap bytes the decode allocated and its error. Heap
// statistics are process-wide, and the fuzzing engine allocates on
// goroutines of its own, so the decode runs three times and the least
// figure counts: the decoder's own share is the same every run.
func decodeTestLeg(body []byte, a *commat.Matrix) (allocated uint64, err error) {
	p := testLeg.p
	segs := make([][]int64, p*p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			segs[i*p+j] = make([]int64, a.At(i, j))
		}
	}
	dst := func(i, j int) []int64 { return segs[i*p+j] }
	allocated = math.MaxUint64
	for range 3 {
		r := bytes.NewReader(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = decodeExchange(r, testLeg, a, dst)
		runtime.ReadMemStats(&after)
		allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
	}
	return allocated, err
}

// allocSlack covers the decoder's fixed allocations besides the payload
// page: its small header buffers and the formatted error, if any.
const allocSlack = 2048

// corruptions are the malformed bodies the decoder must refuse, derived
// from a valid one. Offsets follow the RPX2 layout: the 36-byte header
// (from at 28, to at 32), then the first source index at 36 and the
// first count at 40.
var corruptions = []struct {
	name string
	edit func(b []byte) []byte
}{
	{"corrupt count", func(b []byte) []byte { b[40] ^= 1; return b }},
	{"huge count", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[40:], 1<<62); return b }},
	{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }},
	{"truncated header", func(b []byte) []byte { return b[:20] }},
	{"wrong source sequence", func(b []byte) []byte { b[36] ^= 1; return b }},
	{"wrong from echo", func(b []byte) []byte { b[28] ^= 1; return b }},
	{"wrong to echo", func(b []byte) []byte { b[32] ^= 2; return b }},
	{"bad magic", func(b []byte) []byte { b[3] = '1'; return b }},
	{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
}

// TestDecodeExchangeRejects: every corruption of a valid leg is an
// error, never a panic and never a payload-sized allocation driven by
// the wire; the valid leg itself decodes.
func TestDecodeExchangeRejects(t *testing.T) {
	valid, a, maxA := validLeg(t)
	if _, err := decodeTestLeg(valid, a); err != nil {
		t.Fatalf("valid leg refused: %v", err)
	}
	for _, c := range corruptions {
		body := c.edit(bytes.Clone(valid))
		allocated, err := decodeTestLeg(body, a)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if limit := uint64(8*maxA + allocSlack); allocated > limit {
			t.Errorf("%s: decoder allocated %d bytes, bound %d", c.name, allocated, limit)
		}
	}
}

// FuzzDecodeExchange: on any body the decoder returns without panicking
// and allocates at most one payload page (8 * max a_ij bytes) plus its
// fixed slack. A body it accepts must have the valid leg's framing: the
// same length and the same header — only payload values, which no
// receiver can verify, may differ.
func FuzzDecodeExchange(f *testing.F) {
	valid, a, maxA := validLeg(f)
	f.Add(valid)
	for _, c := range corruptions {
		f.Add(c.edit(bytes.Clone(valid)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		allocated, err := decodeTestLeg(body, a)
		if limit := uint64(8*maxA + allocSlack); allocated > limit {
			t.Fatalf("decoder allocated %d bytes, bound %d", allocated, limit)
		}
		if err != nil {
			return
		}
		if len(body) != len(valid) || !bytes.Equal(body[:exchangeHeaderLen], valid[:exchangeHeaderLen]) {
			t.Fatalf("accepted a body with different framing (%d bytes, valid leg %d)", len(body), len(valid))
		}
	})
}
