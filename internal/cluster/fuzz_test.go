// Native fuzz targets for the cluster's two parsers of peer input: the
// round-2 exchange decoder, which reads bytes a peer chose, and the
// query parsing of the peer-facing endpoints. CI runs each for a short
// -fuzztime as a smoke pass; longer local runs:
//
//	go test -run='^$' -fuzz=FuzzDecodeExchange -fuzztime=60s ./internal/cluster
//	go test -run='^$' -fuzz=FuzzPeerQuery -fuzztime=60s ./internal/cluster
package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"runtime"
	"strconv"
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
	a = engine.NewCGM(testLeg.seed, sizes, sizes).Matrix()
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
	segs := make([][]int32, p*p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			segs[i*p+j] = make([]int32, a.At(i, j))
		}
	}
	dst := func(i, j int) []int32 { return segs[i*p+j] }
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
	{"payload value outside its source block", func(b []byte) []byte {
		// Still in order, and the valid value again once narrowed to
		// 4 bytes: only the block check can see it.
		seg := longSegment(b)
		last := seg[len(seg)-8:]
		binary.LittleEndian.PutUint64(last, binary.LittleEndian.Uint64(last)+1<<32)
		return b
	}},
	{"payload out of order", func(b []byte) []byte {
		// The second value repeats the first: both lie in the block,
		// but the segment no longer increases strictly.
		seg := longSegment(b)
		copy(seg[8:16], seg[:8])
		return b
	}},
}

// eachSegment calls f with the source block and the payload of every
// segment of a testLeg body framed like the valid leg's.
func eachSegment(b []byte, f func(i int, payload []byte)) {
	sLo, sHi := blockSpan(testLeg.p, testLeg.nodes, testLeg.from)
	tLo, tHi := blockSpan(testLeg.p, testLeg.nodes, testLeg.to)
	off := exchangeHeaderLen
	for i := sLo; i < sHi; i++ {
		off += 4
		for range tHi - tLo {
			count := int(binary.LittleEndian.Uint64(b[off:]))
			f(i, b[off+8:off+8+8*count])
			off += 8 + 8*count
		}
	}
}

// longSegment returns the payload of the first segment of a valid
// testLeg body holding at least two values.
func longSegment(b []byte) (seg []byte) {
	eachSegment(b, func(_ int, payload []byte) {
		if seg == nil && len(payload) >= 16 {
			seg = payload
		}
	})
	return seg
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
// same length and the same header. Its payload values may differ from
// the valid leg's, since no receiver can recompute them, but each
// segment must hold strictly increasing indexes of its source block:
// the rule RouteIota's source order makes checkable.
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
		eachSegment(body, func(i int, payload []byte) {
			prev, end := blockStart(testLeg.n, testLeg.p, i)-1, blockStart(testLeg.n, testLeg.p, i+1)
			for k := 0; k < len(payload); k += 8 {
				v := int64(binary.LittleEndian.Uint64(payload[k:]))
				if v <= prev || v >= end {
					t.Fatalf("accepted value %d of source block %d after %d; the block ends at %d", v, i, prev, end)
				}
				prev = v
			}
		})
	})
}

// namesParam matches how every 400 of the peer endpoints names the
// query parameter at fault.
var namesParam = regexp.MustCompile(`(missing|bad) (n|seed|start|len|from|to)\b|\bn=\d+ exceeds`)

// FuzzPeerQuery drives arbitrary query values into /v1/cluster/chunk
// and /v1/cluster/exchange of a one-node cluster, which makes no
// network calls. Neither endpoint may panic or answer 5xx; a 400 names
// the parameter and never formats a nil error; a 200 chunk body is
// exactly 8·len bytes.
func FuzzPeerQuery(f *testing.F) {
	nd, err := New(Config{Peers: []string{"http://n0"}, Procs: 4, MaxN: 64})
	if err != nil {
		f.Fatal(err)
	}
	h := nd.Handler()
	f.Add("64", "1", "0", "64", "0", "0")
	f.Add("10", "7", "3", "5", "0", "0")
	f.Add("-5", "1", "-1", "-1", "-1", "1")
	f.Add("65", "x", "", "9223372036854775807", "9223372036854775807", "")
	f.Add("0", "18446744073709551615", "0", "0", "00", "+0")
	f.Fuzz(func(t *testing.T, n, seed, start, length, from, to string) {
		chunk := url.Values{"n": {n}, "seed": {seed}, "start": {start}, "len": {length}}
		exchange := url.Values{"n": {n}, "seed": {seed}, "p": {"4"}, "nodes": {"1"}, "from": {from}, "to": {to}}
		for i, u := range []string{"/v1/cluster/chunk?" + chunk.Encode(), "/v1/cluster/exchange?" + exchange.Encode()} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", u, nil))
			body := w.Body.String()
			switch {
			case w.Code >= 500:
				t.Fatalf("%s: status %d: %s", u, w.Code, body)
			case w.Code == http.StatusBadRequest:
				if !namesParam.MatchString(body) || bytes.Contains(w.Body.Bytes(), []byte("<nil>")) {
					t.Fatalf("%s: 400 body %q does not name a parameter", u, body)
				}
			case w.Code == http.StatusOK && i == 0:
				if l, err := strconv.ParseInt(length, 10, 64); err != nil || int64(w.Body.Len()) != 8*l {
					t.Fatalf("%s: 200 with %d body bytes", u, w.Body.Len())
				}
			}
		}
	})
}
