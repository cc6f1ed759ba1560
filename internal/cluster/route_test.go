package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"randperm/internal/core"
	"randperm/internal/engine"
)

// writeExchangePerLeg is the exchange server as it was before routed
// entries, kept as the byte reference: every leg samples the matrix and
// routes each source block of the served slot into a page of T in
// exchange layout for the requested target slot alone, then encodes it
// as on the wire. It returns the values shipped, or 0 once a write
// fails.
func writeExchangePerLeg[T int32 | int64](w io.Writer, leg exchangeLeg) (shipped int64) {
	sizes := core.EvenBlocks(leg.n, leg.p)
	cgm := engine.NewCGM(leg.seed, sizes, sizes)
	sLo, sHi := blockSpan(leg.p, leg.nodes, leg.from) // the served source slot's blocks
	tLo, tHi := blockSpan(leg.p, leg.nodes, leg.to)   // the requested target slot's blocks
	ex := cgm.Exchange(tLo, tHi)
	wire := leg.appendHeader(make([]byte, 0, 1<<15))
	if _, err := w.Write(wire); err != nil {
		return 0
	}
	var page []T
	var labels []int32
	for i := sLo; i < sHi; i++ {
		m := ex.Len(i)
		page = slices.Grow(page[:0], int(m)+1)[:m+1]
		labels = cgm.LabelsInto(labels, i)
		engine.RouteIota(ex, i, labels, page)
		wire = binary.LittleEndian.AppendUint32(slices.Grow(wire[:0], 4+8*(tHi-tLo)+8*int(m)), uint32(int32(i)))
		for j := tLo; j < tHi; j++ {
			lo, hi := ex.Segment(i, j)
			wire = binary.LittleEndian.AppendUint64(wire, uint64(hi-lo))
			for _, v := range page[lo:hi] {
				wire = binary.LittleEndian.AppendUint64(wire, uint64(v))
			}
		}
		if _, err := w.Write(wire); err != nil {
			return 0
		}
		shipped += m
	}
	return shipped
}

// TestExchangeMatchesPerLegRouting: every exchange leg encoded from a
// routed entry is byte for byte the leg the per-leg router writes, at
// both widths, for empty, tiny and uneven domains and for cluster
// sizes that do and do not divide p. The served handler's body, from
// the node's own entry, is the same bytes too.
func TestExchangeMatchesPerLegRouting(t *testing.T) {
	const p, seed = 6, 23
	for _, nodes := range []int{1, 2, 3, 4} {
		peers := make([]string, nodes)
		for k := range peers {
			peers[k] = fmt.Sprintf("http://n%d", k)
		}
		for _, n := range []int64{0, 1, p - 1, 10_000} {
			for from := range nodes {
				nd, err := New(Config{Self: from, Peers: peers, Procs: p})
				if err != nil {
					t.Fatal(err)
				}
				narrow, wide := routeSlot[int32](nd, from, n, seed, nil), routeSlot[int64](nd, from, n, seed, nil)
				for to := range nodes {
					leg := exchangeLeg{seed: seed, n: n, p: p, nodes: nodes, from: from, to: to}
					var want bytes.Buffer
					wantShipped := writeExchangePerLeg[int64](&want, leg)
					for _, got := range []func(io.Writer) int64{
						func(w io.Writer) int64 { return writeExchange[int32](w, leg, narrow) },
						func(w io.Writer) int64 { return writeExchange[int64](w, leg, wide) },
					} {
						var body bytes.Buffer
						if shipped := got(&body); shipped != wantShipped || !bytes.Equal(body.Bytes(), want.Bytes()) {
							t.Fatalf("N=%d n=%d leg %d -> %d: shipped %d values in %d bytes, per-leg routing %d in %d, or the bytes differ",
								nodes, n, from, to, shipped, body.Len(), wantShipped, want.Len())
						}
					}
					rec := httptest.NewRecorder()
					nd.Handler().ServeHTTP(rec, httptest.NewRequest("GET",
						fmt.Sprintf("/v1/cluster/exchange?n=%d&seed=%d&p=%d&nodes=%d&from=%d&to=%d", n, seed, p, nodes, from, to), nil))
					if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
						t.Fatalf("N=%d n=%d leg %d -> %d served: %d, %d bytes; want 200, the per-leg routing's %d bytes",
							nodes, n, from, to, rec.Code, rec.Body.Len(), want.Len())
					}
				}
			}
		}
	}
}

// TestRoutedOnce: one cold pull through node 0 builds every shard of
// the cluster, and with R = 1 each node routes each source block of
// its slot exactly once — for its own shard and for every peer's leg —
// and holds no routed entry once the pull is done, every target slot
// having taken its segments. With R = 2 some entries are never taken in
// full (their targets' builds ask the other replica), so they age out:
// however many permutations pass, no node holds more than 2R of them.
func TestRoutedOnce(t *testing.T) {
	const n, procs = 3001, 8
	for _, nodes := range []int{2, 4} {
		t.Run(fmt.Sprintf("R=1/N=%d", nodes), func(t *testing.T) {
			nds, _ := bootChaosCluster(t, nodes, procs, 1, nil)
			checkPull(t, nds[0], n, procs, 5)
			for k, nd := range nds {
				lo, hi := blockSpan(procs, nodes, k)
				if got := nd.routedBlocks.Load(); got != int64(hi-lo) {
					t.Errorf("node %d routed %d source blocks, want its slot's %d once each", k, got, hi-lo)
				}
				if got := nd.routes.Len(); got != 0 {
					t.Errorf("node %d holds %d routed entries after the pull, want 0", k, got)
				}
			}
		})
	}
	t.Run("R=2/N=4", func(t *testing.T) {
		const nodes, replicas = 4, 2
		nds, _ := bootChaosCluster(t, nodes, procs, replicas, nil)
		for seed := range uint64(6) {
			checkPull(t, nds[seed%nodes], n, procs, seed+1)
			for k, nd := range nds {
				if got := nd.routes.Len(); got > 2*replicas {
					t.Fatalf("after pull %d node %d holds %d routed entries, cap %d", seed, k, got, 2*replicas)
				}
			}
		}
	})
}

// checkPull reads the whole (seed, n) permutation through nd and
// compares it with the single-process bytes.
func checkPull(t *testing.T, nd *Node, n int64, procs int, seed uint64) {
	t.Helper()
	got, err := readAll(nd, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if want := singleNodeCGM(t, n, procs, seed); !slices.Equal(got, want) {
		t.Fatalf("seed %d: the pull differs from the single-process permutation", seed)
	}
}

// cutWriter is a ResponseWriter whose client is gone: every write fails.
type cutWriter struct{ header http.Header }

func (c *cutWriter) Header() http.Header         { return c.header }
func (c *cutWriter) WriteHeader(int)             {}
func (c *cutWriter) Write(b []byte) (int, error) { return 0, errors.New("client gone") }

// TestCutLegTakesNothing: a leg whose write fails leaves its target
// slot untaken, so the entry stays for the retry; the entry leaves only
// once every target slot has had a leg written in full, and it was
// routed once through all of it.
func TestCutLegTakesNothing(t *testing.T) {
	const n, p, seed = 10_000, 6, 3
	nd, err := New(Config{Self: 0, Peers: []string{"http://n0", "http://n1"}, Procs: p})
	if err != nil {
		t.Fatal(err)
	}
	leg := func(w http.ResponseWriter, to int) {
		nd.Handler().ServeHTTP(w, httptest.NewRequest("GET",
			fmt.Sprintf("/v1/cluster/exchange?n=%d&seed=%d&p=%d&nodes=2&from=0&to=%d", n, seed, p, to), nil))
	}
	for _, step := range []struct {
		to       int
		cut      bool
		resident int
	}{{1, true, 1}, {0, false, 1}, {1, true, 1}, {1, false, 0}} {
		if step.cut {
			leg(&cutWriter{header: http.Header{}}, step.to)
		} else {
			rec := httptest.NewRecorder()
			if leg(rec, step.to); rec.Code != 200 {
				t.Fatalf("leg 0 -> %d: %d %s", step.to, rec.Code, rec.Body)
			}
		}
		if got := nd.routes.Len(); got != step.resident {
			t.Fatalf("after leg 0 -> %d (cut %v): %d routed entries resident, want %d", step.to, step.cut, got, step.resident)
		}
	}
	if lo, hi := blockSpan(p, 2, 0); nd.routedBlocks.Load() != int64(hi-lo) {
		t.Errorf("routed %d source blocks over four legs, want slot 0's %d once each", nd.routedBlocks.Load(), hi-lo)
	}
}
