package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
)

// pageCounter is a ResponseWriter that keeps the body, counts the
// writes it arrives in and notes a short write followed by another.
type pageCounter struct {
	header http.Header
	code   int
	body   bytes.Buffer
	writes int
	last   int  // the last write's length
	gap    bool // a write shorter than wirePage was not the last
}

func newPageCounter() *pageCounter { return &pageCounter{header: http.Header{}, code: http.StatusOK} }

func (c *pageCounter) Header() http.Header  { return c.header }
func (c *pageCounter) WriteHeader(code int) { c.code = code }
func (c *pageCounter) Write(b []byte) (int, error) {
	c.gap = c.gap || c.writes > 0 && c.last != wirePage
	c.writes, c.last = c.writes+1, len(b)
	return c.body.Write(b)
}

// checkFraming fails unless c holds a 200 whose declared Content-Length
// is its body's length, written in ⌈length/wirePage⌉ writes, all full
// pages but the last.
func checkFraming(t *testing.T, what string, c *pageCounter) {
	t.Helper()
	if c.code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, c.code, c.body.Bytes())
	}
	size := int64(c.body.Len())
	if cl := c.header.Get("Content-Length"); cl != strconv.FormatInt(size, 10) {
		t.Fatalf("%s: Content-Length %q, body %d bytes", what, cl, size)
	}
	if want := int((size + wirePage - 1) / wirePage); c.writes != want || c.gap {
		t.Fatalf("%s: %d bytes in %d writes, want %d, every one but the last %d bytes", what, size, c.writes, want, wirePage)
	}
}

// TestPeerBodyFraming: both peer hops declare their body's exact
// length and send it in pages of min(wirePage, body bytes), so a body
// leaves in ⌈bytes/wirePage⌉ writes — over the exchange grid of
// TestExchangeMatchesPerLegRouting, a multi-page leg whose words
// straddle page ends, and chunk ranges around one page's worth of
// values. Every page is sized to its body, and serving a leg at N = 16
// allocates little beyond the leg's bytes.
func TestPeerBodyFraming(t *testing.T) {
	exchangeReq := func(nd *Node, n int64, seed uint64, to int) *http.Request {
		return httptest.NewRequest("GET", fmt.Sprintf("/v1/cluster/exchange?n=%d&seed=%d&p=%d&nodes=%d&from=%d&to=%d",
			n, seed, nd.cfg.Procs, len(nd.cfg.Peers), nd.cfg.Self, to), nil)
	}
	exchange := func(nd *Node, n int64, seed uint64, to int) *pageCounter {
		c := newPageCounter()
		nd.Handler().ServeHTTP(c, exchangeReq(nd, n, seed, to))
		return c
	}
	peersOf := func(nodes int) []string {
		peers := make([]string, nodes)
		for k := range peers {
			peers[k] = fmt.Sprintf("http://n%d", k)
		}
		return peers
	}

	t.Run("exchange", func(t *testing.T) {
		const p, seed = 6, 23
		for _, nodes := range []int{1, 2, 3, 4} {
			for _, n := range []int64{0, 1, p - 1, 10_000} {
				for from := range nodes {
					nd, err := New(Config{Self: from, Peers: peersOf(nodes), Procs: p})
					if err != nil {
						t.Fatal(err)
					}
					for to := range nodes {
						checkFraming(t, fmt.Sprintf("N=%d n=%d leg %d -> %d", nodes, n, from, to), exchange(nd, n, seed, to))
					}
				}
			}
		}
		// 10^6 values over 2 nodes: legs of about 2 MB, whose 4-byte
		// source indexes put words across page ends.
		const n = 1_000_000
		nd, err := New(Config{Self: 0, Peers: peersOf(2), Procs: p})
		if err != nil {
			t.Fatal(err)
		}
		for to := range 2 {
			var want bytes.Buffer
			writeExchangePerLeg[int64](&want, exchangeLeg{seed: seed, n: n, p: p, nodes: 2, from: 0, to: to})
			c := exchange(nd, n, seed, to)
			checkFraming(t, fmt.Sprintf("n=%d leg 0 -> %d", n, to), c)
			if c.writes < 2 || !bytes.Equal(c.body.Bytes(), want.Bytes()) {
				t.Fatalf("n=%d leg 0 -> %d: %d bytes in %d writes, per-leg routing %d bytes, or the bytes differ",
					n, to, c.body.Len(), c.writes, want.Len())
			}
		}
	})

	t.Run("chunk", func(t *testing.T) {
		const n, p, seed = 100_000, 6, 9
		nd, err := New(Config{Peers: peersOf(1), Procs: p})
		if err != nil {
			t.Fatal(err)
		}
		perm := singleNodeCGM(t, n, p, seed)
		for _, span := range [][2]int64{{500, 0}, {500, 1}, {7, 32767}, {7, 32768}, {7, 32769}, {0, n}} {
			start, length := span[0], span[1]
			c := newPageCounter()
			nd.Handler().ServeHTTP(c, httptest.NewRequest("GET",
				fmt.Sprintf("/v1/cluster/chunk?n=%d&seed=%d&start=%d&len=%d", n, seed, start, length), nil))
			what := fmt.Sprintf("chunk [%d, +%d)", start, length)
			checkFraming(t, what, c)
			body := c.body.Bytes()
			if int64(len(body)) != 8*length {
				t.Fatalf("%s: %d bytes, want %d", what, len(body), 8*length)
			}
			for i := range length {
				if v := int64(binary.LittleEndian.Uint64(body[8*i:])); v != perm[start+i] {
					t.Fatalf("%s: value %d at %d, want %d", what, v, start+i, perm[start+i])
				}
			}
		}
	})

	t.Run("page sizing", func(t *testing.T) {
		for _, size := range []int64{0, 1, exchangeHeaderLen, wirePage - 1, wirePage, wirePage + 1, 10 * wirePage} {
			pw := newPageWriter(io.Discard, size)
			if got, want := int64(cap(pw.page)), min(wirePage, size); got != want {
				t.Errorf("a %d-byte body pages through %d bytes, want %d", size, got, want)
			}
			pw.close()
		}
	})

	t.Run("leg allocation", func(t *testing.T) {
		const n, nodes, seed = 1_000_000, 16, 4
		nd, err := New(Config{Self: 0, Peers: peersOf(nodes), Procs: nodes})
		if err != nil {
			t.Fatal(err)
		}
		nd.route(0, n, seed, nil) // the entry is shared, not the leg's
		h := nd.Handler()
		allocated := uint64(math.MaxUint64)
		var size int
		for range 3 {
			// The request and the body's buffer are the test's.
			req, c := exchangeReq(nd, n, seed, 1), newPageCounter()
			c.body.Grow(1 << 20)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.ServeHTTP(c, req)
			runtime.ReadMemStats(&after)
			allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
			checkFraming(t, "leg 0 -> 1", c)
			size = c.body.Len()
		}
		if limit := uint64(size + 4<<10); allocated > limit {
			t.Errorf("serving a %d-byte leg allocated %d bytes beside its body, bound %d", size, allocated, limit)
		}
		t.Logf("a %d-byte leg at N=%d: %d bytes allocated beside the body", size, nodes, allocated)
	})
}
