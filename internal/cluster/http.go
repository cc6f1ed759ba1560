package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"randperm/internal/commat"
	"randperm/internal/engine"
	"randperm/internal/events"
	"randperm/internal/metrics"
	"randperm/internal/query"
)

// serveEvent records a hedge or failover decision on a routed read (or
// an exchange failover) on its counter c and as a cluster_round event:
// Peer is the replica being tried, Round names the phase, Detail the
// decision.
func (nd *Node) serveEvent(c *metrics.Value, peer, round, slot int, detail string) {
	ev := events.New(events.TypeClusterRound)
	ev.Peer = peer
	ev.Round = round
	ev.Slot = slot
	ev.Detail = detail
	c.Add(1)
	nd.publish(ev)
}

// The exchange wire format (one round-2 h-relation leg, server -> one
// requesting peer) is length-prefixed little-endian binary:
//
//	magic  "RPX2"                                    4 bytes
//	seed   uint64 | n int64                          config echo —
//	p, nodes, from, to  4 x int32                    verified by both ends
//	then, for each source block i of slot `from`, ascending:
//	  i      int32
//	  for each target block j of slot `to`, ascending:
//	    count  int64        the matrix entry a_ij this segment realizes
//	    count x int64       the routed element payloads, in source order
//
// The counts ARE the server's matrix row entries, so the exchange
// carries matrix rows and payloads in one stream; the requester checks
// every count against its own locally sampled matrix and refuses the
// response on any mismatch — a diverging seed, width or cluster layout
// is an error, never a silently mixed permutation. `from` and `to` are
// shard slots, not node indices: with replication any duty holder of
// `from` serves the identical bytes, because the payloads are drawn
// from the slot's streams, not from node state. (RPX1 was the
// pre-replication format whose from/to were node indices; the magic
// bump makes a mixed-version cluster fail loudly on the first
// exchange.)

const exchangeMagic = "RPX2"

// Peer-call headers: every request a node sends carries its own index
// and its current health view; every /v1/cluster/* response carries the
// answering node's view. Both directions are absorbed, which is what
// makes the gossip free — it rides calls the nodes were making anyway.
const (
	fromHeader   = "X-Permd-From"
	healthHeader = "X-Permd-Health"
)

// Round numbers for PeerError, matching the paper's round structure.
// Rounds 1 and 3 are local and cannot produce peer errors; calls
// outside the build (routed chunk reads, join handshakes) report
// RoundServe.
const (
	RoundServe    = 0 // outside the three rounds: shard-local chunk serving or join
	RoundExchange = 2 // the round-2 h-relation exchange
)

// PeerError reports a failed call to a cluster peer with enough context
// to act on without parsing strings: the peer's index and address, the
// algorithm round in flight, and the operation. It wraps the transport
// or protocol error underneath, so errors.As surfaces it from anywhere
// in a Chunk/Materialize error chain.
type PeerError struct {
	Node  int    // the peer's index in Config.Peers
	Addr  string // the peer's base URL
	Round int    // RoundExchange during a shard build's h-relation, else RoundServe
	Op    string // "exchange", "chunk" or "join"
	Err   error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("cluster: %s with node %d (%s) in round %d: %v", e.Op, e.Node, e.Addr, e.Round, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// peerError wraps err for a failed call to peer k.
func (nd *Node) peerError(k, round int, op string, err error) *PeerError {
	return &PeerError{Node: k, Addr: nd.cfg.Peers[k], Round: round, Op: op, Err: err}
}

// peerGet performs one GET against peer k with the cluster headers
// attached, records the outcome in the health tracker, and absorbs the
// peer's gossiped view from the response. A context cancelled by the
// caller (a hedge loser) is not held against the peer's health. Any
// 2xx-4xx answer counts as alive — a config refusal still proves the
// peer is up; transport errors and 5xx count as failures.
func (nd *Node) peerGet(ctx context.Context, k int, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(fromHeader, strconv.Itoa(nd.cfg.Self))
	if g := nd.health.gossip(); g != "" {
		req.Header.Set(healthHeader, g)
	}
	resp, err := nd.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			nd.health.failure(k)
		}
		return nil, err
	}
	nd.health.absorb(resp.Header.Get(healthHeader), k, nd.cfg.Self)
	if resp.StatusCode >= 500 {
		nd.health.failure(k)
	} else {
		nd.health.success(k)
	}
	return resp, nil
}

// Handler returns the node's peer-facing API, rooted at /v1/cluster/:
//
//	GET /v1/cluster/exchange?n=&seed=&p=&nodes=&from=&to=  round-2 payloads, source slot `from` -> target slot `to`
//	GET /v1/cluster/chunk?n=&seed=&start=&len=             replicated-shard values, binary LE int64
//	GET /v1/cluster/join?node=&hash=                       geometry handshake (see join.go)
//	GET /v1/cluster/status                                 JSON node/cluster introspection
//
// Every response carries this node's health view in X-Permd-Health, and
// every request's view is absorbed — the gossip layer. Mount it on the
// same server that serves the public permd API (the service layer does)
// or on its own listener.
func (nd *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/exchange", nd.handleExchange)
	mux.HandleFunc("GET /v1/cluster/chunk", nd.handleChunk)
	mux.HandleFunc("GET /v1/cluster/join", nd.handleJoin)
	mux.HandleFunc("GET /v1/cluster/status", nd.handleStatus)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Gossip piggyback, both directions. A request from a peer is
		// also first-hand evidence the peer is alive.
		if fv := r.Header.Get(fromHeader); fv != "" {
			if k, err := strconv.Atoi(fv); err == nil && k >= 0 && k < len(nd.cfg.Peers) && k != nd.cfg.Self {
				nd.health.success(k)
				nd.health.absorb(r.Header.Get(healthHeader), k, nd.cfg.Self)
			}
		}
		if g := nd.health.gossip(); g != "" {
			w.Header().Set(healthHeader, g)
		}
		mux.ServeHTTP(w, r)
	})
}

// refused answers rd's first fault, if it has one, as a 400 and
// reports whether it did: the one place a peer handler refuses its
// parameters.
func refused(w http.ResponseWriter, rd *query.Reader) bool {
	err := rd.Err()
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster: %v", err), http.StatusBadRequest)
	}
	return err != nil
}

// identity reads the permutation a peer request names: n, gated by
// Config.MaxN so the peer endpoints accept no work the public API
// would refuse, and seed.
func (nd *Node) identity(rd *query.Reader) (n int64, seed uint64) {
	n = rd.Count(rd.Required("n"), 0)
	rd.Check(nd.cfg.MaxN <= 0 || n <= nd.cfg.MaxN, "n=%d exceeds this node's bound %d", n, nd.cfg.MaxN)
	return n, rd.Seed(rd.Required("seed"))
}

// handleExchange serves round 2 to one requesting peer: the payload
// segments source slot `from`'s blocks route to target slot `to`'s
// blocks are streamed out, each prefixed with the matrix entry it
// realizes. The node serves any source slot it replicates — the
// segments are derived from the slot's streams, so every duty holder
// ships identical bytes — and refuses slots outside its duty, which is
// what keeps R=1 failures honest: a dead primary's contributions are
// then not derivable from anyone, and the build errors instead of
// silently recomputing the whole cluster's work on one box.
//
// The handler is not stateless: the segments come from the node's
// routed entry for (from, n, seed) (route.go), shared with the node's
// own shard builds and every other leg of the slot, so the slot's
// labels are drawn and routed once per permutation, not once per
// requester. The entry is routed by whichever of those asks first;
// a leg written in full marks its target slot taken, and the entry
// leaves the cache when every target slot has taken its segments, or
// ages out of the 2R-entry LRU. A leg that fails mid-write takes
// nothing, so a retry finds the entry still there (or routes it
// again, with the same bytes). Per request the handler holds one wire
// page of min(wirePage, leg bytes) beside the shared entry, and it
// declares the body's exact length up front, so the leg goes out in
// ⌈bytes/wirePage⌉ writes with no chunked framing.
func (nd *Node) handleExchange(w http.ResponseWriter, r *http.Request) {
	nd.exchangeReqs.Add(1)
	q := r.URL.Query()
	// Config echo: a requester with a different width or layout gets a
	// conflict naming both values, the cluster's first line of defense
	// against serving bytes from a different permutation.
	if pv := q.Get("p"); pv != strconv.Itoa(nd.cfg.Procs) {
		http.Error(w, fmt.Sprintf("cluster: decomposition width mismatch: peer p=%s, this node p=%d", pv, nd.cfg.Procs), http.StatusConflict)
		return
	}
	nodes := len(nd.cfg.Peers)
	if nv := q.Get("nodes"); nv != strconv.Itoa(nodes) {
		http.Error(w, fmt.Sprintf("cluster: cluster size mismatch: peer nodes=%s, this node nodes=%d", nv, nodes), http.StatusConflict)
		return
	}
	rd := query.New(q)
	n, seed := nd.identity(rd)
	from := rd.Count(rd.Required("from"), 0)
	rd.Check(from < int64(nodes), "bad from=%d: want a shard slot in [0, %d)", from, nodes)
	to := rd.Count(rd.Required("to"), 0)
	rd.Check(to < int64(nodes), "bad to=%d: want a shard slot in [0, %d)", to, nodes)
	if refused(w, rd) {
		return
	}
	if !nd.hasDuty(nd.cfg.Self, int(from)) {
		http.Error(w, fmt.Sprintf("cluster: this node does not replicate source slot %d (replicas=%d)", from, nd.cfg.Replicas), http.StatusForbidden)
		return
	}

	leg := exchangeLeg{seed: seed, n: n, p: nd.cfg.Procs, nodes: nodes, from: int(from), to: int(to)}
	rt := nd.route(leg.from, n, seed, nil)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(leg.bodyLen(rt), 10))
	if shipped := engine.ByWidth(n, writeExchange[int32], writeExchange[int64])(w, leg, rt); shipped >= 0 {
		nd.exchangeItems.Add(shipped)
		nd.take(rt, leg.to)
	}
}

// wirePage is the largest page either peer hop, an exchange leg or a
// proxy hop, codes through: 32768 little-endian int64s. Each body is
// paged in min(wirePage, its exact length) bytes, so a small body's
// page holds no more than the body, and a body of b bytes is written
// in ⌈b/wirePage⌉ writes.
const wirePage = 1 << 18

// pageWriter writes a body of known length to w page by page: a page
// is written out as soon as it is full, the last one by close. Every
// page but the last is full, even where a word straddles two pages.
type pageWriter struct {
	w    io.Writer
	page []byte // the page being filled, up to its cap
	err  error  // the first failed write; later pages are dropped
}

func newPageWriter(w io.Writer, length int64) *pageWriter {
	return &pageWriter{w: w, page: make([]byte, 0, min(wirePage, length))}
}

// flushFull writes the page out if it has no room left.
func (pw *pageWriter) flushFull() {
	if len(pw.page) == cap(pw.page) {
		if pw.err == nil {
			_, pw.err = pw.w.Write(pw.page)
		}
		pw.page = pw.page[:0]
	}
}

// put appends b, across pages if it must.
func (pw *pageWriter) put(b []byte) {
	for len(b) > 0 && pw.err == nil {
		k := copy(pw.page[len(pw.page):cap(pw.page)], b)
		pw.page, b = pw.page[:len(pw.page)+k], b[k:]
		pw.flushFull()
	}
}

// putWord appends v as a little-endian uint64.
func (pw *pageWriter) putWord(v uint64) {
	var b [8]byte
	pw.put(binary.LittleEndian.AppendUint64(b[:0], v))
}

// putVals appends seg as little-endian int64s, encoding whole runs
// straight into the page.
func putVals[T int32 | int64](pw *pageWriter, seg []T) {
	for len(seg) > 0 && pw.err == nil {
		m := min(len(seg), (cap(pw.page)-len(pw.page))/8)
		if m == 0 { // under 8 bytes left: this word straddles two pages
			pw.putWord(uint64(seg[0]))
			seg = seg[1:]
			continue
		}
		page := pw.page
		for _, v := range seg[:m] {
			page = binary.LittleEndian.AppendUint64(page, uint64(v))
		}
		pw.page, seg = page, seg[m:]
		pw.flushFull()
	}
}

// close writes the last, partly filled page, if any, and returns the
// first failed write.
func (pw *pageWriter) close() error {
	if len(pw.page) > 0 && pw.err == nil {
		_, pw.err = pw.w.Write(pw.page)
	}
	return pw.err
}

// writeExchange writes leg's response body to w from rt, the routed
// entry of leg's source slot stored as T, and returns the values it
// shipped, or -1 once a write fails. Each source block of the slot is
// encoded as on the wire — i, then per target block of leg's target
// slot its count and payload — through one page sized to the body.
func writeExchange[T int32 | int64](w io.Writer, leg exchangeLeg, rt *routed) (shipped int64) {
	vals := rt.vals.(engine.PosSlice[T])
	sLo, sHi := blockSpan(leg.p, leg.nodes, leg.from) // the served source slot's blocks
	tLo, tHi := blockSpan(leg.p, leg.nodes, leg.to)   // the requested target slot's blocks
	pw := newPageWriter(w, leg.bodyLen(rt))
	var buf [exchangeHeaderLen]byte
	pw.put(leg.appendHeader(buf[:0]))
	for i := sLo; i < sHi && pw.err == nil; i++ {
		pw.put(binary.LittleEndian.AppendUint32(buf[:0], uint32(int32(i))))
		for j := tLo; j < tHi; j++ {
			lo, hi := rt.segment(i, j)
			pw.putWord(uint64(hi - lo))
			putVals(pw, vals[lo:hi])
			shipped += hi - lo
		}
	}
	if pw.close() != nil {
		return -1
	}
	return shipped
}

// bodyLen is the exact length of leg's body from rt: the header, then
// per source block its index and, per target block, a count and 8
// bytes a value.
func (l exchangeLeg) bodyLen(rt *routed) int64 {
	sLo, sHi := blockSpan(l.p, l.nodes, l.from)
	tLo, tHi := blockSpan(l.p, l.nodes, l.to)
	size := int64(exchangeHeaderLen)
	for i := sLo; i < sHi; i++ {
		size += 4
		for j := tLo; j < tHi; j++ {
			lo, hi := rt.segment(i, j)
			size += 8 + 8*(hi-lo)
		}
	}
	return size
}

// exchangeLeg is the identity of one round-2 response, echoed in its
// header: the permutation (seed, n, p), the cluster size, and the
// source and target shard slots.
type exchangeLeg struct {
	seed     uint64
	n        int64
	p, nodes int
	from, to int
}

// exchangeHeaderLen is the RPX2 header size: magic, seed, n and four
// int32s.
const exchangeHeaderLen = 4 + 8 + 8 + 4*4

// appendHeader appends the leg's RPX2 header to b.
func (l exchangeLeg) appendHeader(b []byte) []byte {
	b = append(b, exchangeMagic...)
	b = binary.LittleEndian.AppendUint64(b, l.seed)
	b = binary.LittleEndian.AppendUint64(b, uint64(l.n))
	for _, v := range [4]int{l.p, l.nodes, l.from, l.to} {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(v)))
	}
	return b
}

// fetchExchangeSlot performs one requester leg of round 2 with replica
// failover: it pulls the payloads source slot `from`'s blocks route
// into target slot `to`'s blocks from one of `from`'s duty holders —
// candidates ranked by observed health, primary first — advancing to
// the next replica on any error. Every attempt's failure is kept in
// the returned chain (each wrapped as a *PeerError naming the peer and
// round), so a fully dead replica set is diagnosable per peer.
func fetchExchangeSlot[T int32 | int64](nd *Node, from, to int, n int64, seed uint64, a *commat.Matrix, dst func(i, j int) []T) error {
	cands := nd.health.rank(nd.replicasOf(from))
	var attempts []error
	for try, k := range cands {
		if try > 0 {
			nd.serveEvent(nd.failovers, k, RoundExchange, from, "failover")
		}
		err := fetchExchange(nd, k, from, to, n, seed, a, dst)
		if err == nil {
			return nil
		}
		attempts = append(attempts, err)
	}
	return fmt.Errorf("cluster: no replica of source slot %d answered the round-2 exchange: %w", from, errors.Join(attempts...))
}

// fetchExchange pulls one exchange leg from peer k and decodes it with
// decodeExchange. Any failure — transport, status, framing or matrix
// disagreement — comes back as a *PeerError carrying k's address and
// the round.
func fetchExchange[T int32 | int64](nd *Node, k, from, to int, n int64, seed uint64, a *commat.Matrix, dst func(i, j int) []T) error {
	leg := exchangeLeg{seed: seed, n: n, p: nd.cfg.Procs, nodes: len(nd.cfg.Peers), from: from, to: to}
	u := fmt.Sprintf("%s/v1/cluster/exchange?n=%d&seed=%d&p=%d&nodes=%d&from=%d&to=%d",
		nd.cfg.Peers[k], n, seed, leg.p, leg.nodes, from, to)
	resp, err := nd.peerGet(context.Background(), k, u)
	if err != nil {
		return nd.peerError(k, RoundExchange, "exchange", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nd.peerError(k, RoundExchange, "exchange", fmt.Errorf("%s: %s", resp.Status, msg))
	}
	if err := decodeExchange(resp.Body, leg, a, dst); err != nil {
		return nd.peerError(k, RoundExchange, "exchange", err)
	}
	return nil
}

// decodeExchange parses one RPX2 response body for leg and decodes
// every verified segment (i, j) into dst(i, j), a slice of exactly
// a_ij values of T. The header must echo leg, source blocks must
// arrive in sequence, every count must equal the local matrix entry —
// checked before anything is allocated for the segment — every
// payload must hold strictly increasing indexes of its source block —
// checked before the segment is stored — and the body must end after
// the last segment. Each segment's payload is read whole, with
// one io.ReadFull, into a page sized once for the leg's largest a_ij,
// so no response can make the decoder allocate more than that.
//
// dst must tolerate partial decoding before an error: segments are
// verified before they are decoded and identical across replicas, so a
// retry against another replica simply overwrites the same values.
func decodeExchange[T int32 | int64](body io.Reader, leg exchangeLeg, a *commat.Matrix, dst func(i, j int) []T) error {
	var hdr [exchangeHeaderLen]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
		return fmt.Errorf("reading header: %v", err)
	}
	if string(hdr[:4]) != exchangeMagic {
		return fmt.Errorf("bad magic %q", hdr[:4])
	}
	gotSeed := binary.LittleEndian.Uint64(hdr[4:])
	gotN := int64(binary.LittleEndian.Uint64(hdr[12:]))
	var ints [4]int32
	for x := range ints {
		ints[x] = int32(binary.LittleEndian.Uint32(hdr[20+4*x:]))
	}
	if gotSeed != leg.seed || gotN != leg.n || int(ints[0]) != leg.p ||
		int(ints[1]) != leg.nodes || int(ints[2]) != leg.from || int(ints[3]) != leg.to {
		return fmt.Errorf("config echo mismatch: got (seed=%d n=%d p=%d nodes=%d from=%d to=%d), want (%d %d %d %d %d %d)",
			gotSeed, gotN, ints[0], ints[1], ints[2], ints[3], leg.seed, leg.n, leg.p, leg.nodes, leg.from, leg.to)
	}

	sLo, sHi := blockSpan(leg.p, leg.nodes, leg.from)
	tLo, tHi := blockSpan(leg.p, leg.nodes, leg.to)
	var page []byte
	var word [8]byte
	for i := sLo; i < sHi; i++ {
		if _, err := io.ReadFull(body, word[:4]); err != nil {
			return fmt.Errorf("reading source header: %v", err)
		}
		if gotI := int32(binary.LittleEndian.Uint32(word[:4])); int(gotI) != i {
			return fmt.Errorf("source block sequence broken: got %d, want %d", gotI, i)
		}
		for j := tLo; j < tHi; j++ {
			if _, err := io.ReadFull(body, word[:]); err != nil {
				return fmt.Errorf("reading segment count: %v", err)
			}
			// The matrix-row check: the shipped count must realize the
			// entry this node sampled locally.
			count := int64(binary.LittleEndian.Uint64(word[:]))
			want := a.At(i, j)
			if count != want {
				return fmt.Errorf("matrix disagreement at a[%d][%d]: peer shipped %d values, local matrix says %d — the nodes are not running the same (seed, n, p, nodes)", i, j, count, want)
			}
			if page == nil {
				var most int64
				for ii := sLo; ii < sHi; ii++ {
					for jj := tLo; jj < tHi; jj++ {
						most = max(most, a.At(ii, jj))
					}
				}
				page = make([]byte, 8*most)
			}
			payload := page[:8*count]
			if _, err := io.ReadFull(body, payload); err != nil {
				return fmt.Errorf("reading segment payload: %v", err)
			}
			// RouteIota keeps source order: the segment must hold strictly
			// increasing indexes of source block i, which all fit T.
			first, end := blockStart(leg.n, leg.p, i), blockStart(leg.n, leg.p, i+1)
			for t, prev := int64(0), first-1; t < count; t++ {
				v := int64(binary.LittleEndian.Uint64(payload[8*t:]))
				if v <= prev || v >= end {
					return fmt.Errorf("payload of a[%d][%d] breaks source order: value %d at %d, want strictly increasing indexes of source block [%d, %d)", i, j, v, t, first, end)
				}
				prev = v
			}
			seg := dst(i, j)[:count]
			for t := range seg {
				seg[t] = T(binary.LittleEndian.Uint64(payload[8*t:]))
			}
		}
	}
	switch _, err := io.ReadFull(body, word[:1]); err {
	case io.EOF:
		return nil
	case nil:
		return fmt.Errorf("trailing bytes after the last segment")
	default:
		return fmt.Errorf("reading past the last segment: %v", err)
	}
}

// handleChunk serves values of the (seed, n) permutation strictly from
// the shard slots this node replicates, as little-endian int64s: the
// peer-to-peer leg of a routed Permuter.Chunk. A range that leaves
// every replicated slot is refused (416) — the caller, not this node,
// is responsible for routing, which is what makes proxy loops
// impossible by construction.
func (nd *Node) handleChunk(w http.ResponseWriter, r *http.Request) {
	nd.chunkReqs.Add(1)
	rd := query.New(r.URL.Query())
	n, seed := nd.identity(rd)
	start := rd.Count(rd.Required("start"), 0)
	length := rd.Count(rd.Required("len"), 0)
	if refused(w, rd) {
		return
	}
	// Find the replicated slot containing the range. length is compared
	// against the remaining extent, never added to start: start+length
	// could overflow int64 and slip past the guard.
	slot := -1
	for _, s := range nd.duties(nd.cfg.Self) {
		lo, hi := nd.ShardRange(n, s)
		if start >= lo && start <= hi && length <= hi-start {
			slot = s
			break
		}
	}
	if slot < 0 {
		http.Error(w, fmt.Sprintf("cluster: range starting at %d for %d values outside every shard this node replicates (node %d, replicas %d)",
			start, length, nd.cfg.Self, nd.cfg.Replicas), http.StatusRequestedRangeNotSatisfiable)
		return
	}
	sh, err := nd.shard(slot, n, seed)
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster: building shard: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(8*length, 10))
	if engine.ByWidth(n, writeChunk[int32], writeChunk[int64])(w, sh, start, length) == nil {
		nd.chunkItems.Add(length)
	}
}

// writeChunk writes values [start, start+length) of sh, stored as T,
// to w as little-endian int64s, encoded straight from the shard
// through one page of min(wirePage, 8·length) bytes.
func writeChunk[T int32 | int64](w io.Writer, sh *Shard, start, length int64) error {
	pw := newPageWriter(w, 8*length)
	putVals(pw, sh.Positions.(engine.PosSlice[T])[start-sh.Start:][:length])
	return pw.close()
}

// fetchChunk pulls values [start, start+len(dst)) of slot's shard from
// peer k into dst, decoding the body through one page of
// min(wirePage, 8·len(dst)) bytes; a body that ends early, runs past
// the last value or carries a value outside [0, n) is refused. The
// wire carries int64s; a []int32 dst is only asked for values of a
// narrow n, so every value that passes the range check fits. ctx is
// the hedging seam: a losing racer is cancelled here, and the
// cancellation is not held against k's health. On an error dst may
// hold part of the span.
func fetchChunk[T int32 | int64](ctx context.Context, nd *Node, k int, n int64, seed uint64, dst []T, start int64) error {
	u := fmt.Sprintf("%s/v1/cluster/chunk?n=%d&seed=%d&start=%d&len=%d",
		nd.cfg.Peers[k], n, seed, start, len(dst))
	resp, err := nd.peerGet(ctx, k, u)
	if err != nil {
		return nd.peerError(k, RoundServe, "chunk", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nd.peerError(k, RoundServe, "chunk", fmt.Errorf("%s: %s", resp.Status, msg))
	}
	page := make([]byte, min(wirePage, 8*len(dst)))
	for at := 0; at < len(dst); {
		m := min(len(dst)-at, len(page)/8)
		if _, err := io.ReadFull(resp.Body, page[:8*m]); err != nil {
			return nd.peerError(k, RoundServe, "chunk", fmt.Errorf("short read: %w", err))
		}
		seg := dst[at : at+m]
		for t := range seg {
			// Every value of the permutation lies in [0, n): one outside
			// it is corruption, never a value to serve.
			v := binary.LittleEndian.Uint64(page[8*t:])
			if v >= uint64(n) {
				return nd.peerError(k, RoundServe, "chunk", fmt.Errorf("value %d at index %d outside [0, %d)", int64(v), start+int64(at+t), n))
			}
			seg[t] = T(v)
		}
		at += m
	}
	var one [1]byte
	switch _, err := io.ReadFull(resp.Body, one[:]); err {
	case io.EOF:
	case nil:
		return nd.peerError(k, RoundServe, "chunk", fmt.Errorf("trailing bytes after %d values", len(dst)))
	default:
		return nd.peerError(k, RoundServe, "chunk", fmt.Errorf("reading past the last value: %w", err))
	}
	nd.proxyReqs.Add(1)
	nd.proxyItems.Add(int64(len(dst)))
	return nil
}

// readRemoteSpan fills dst with [start, start+len(dst)) of slot's
// shard from the slot's replica set: candidates ranked by observed
// health (a peer marked down is tried last, so routing has already
// skipped it before any timer runs), primary replica breaking ties.
// The first candidate is fired immediately; if it has not answered
// within the hedge budget the next one is raced against it, first
// answer wins and the loser is cancelled via its context; any error
// advances to the next candidate at once. A racer launched while no
// other is in flight decodes straight into dst. A racer launched
// beside another — a hedge, or a failover while a hedge is out — fills
// a private buffer, so two racers never write dst at once, and if it
// wins its values are copied into dst only after every other racer has
// returned. Not that a loser could change them: every replica serves
// identical values, which is why hedging is safe at all. Canceling ctx
// — the reading client is gone — stops every racer. Either way, no
// racer outlives the call; on an error dst may hold part of the span.
func readRemoteSpan[T int32 | int64](ctx context.Context, nd *Node, slot int, n int64, seed uint64, dst []T, start int64) error {
	cands := nd.health.rank(nd.replicasOf(slot))
	ctx, cancel := context.WithCancel(ctx)

	type result struct {
		cand   int
		hedged bool
		buf    []T // nil when the racer decoded into dst
		err    error
	}
	ch := make(chan result, len(cands))
	launched, pending := 0, 0
	drain := func() {
		cancel()
		for ; pending > 0; pending-- {
			<-ch
		}
	}
	defer drain()
	launch := func(hedged bool) {
		k := cands[launched]
		launched++
		var buf []T
		if pending > 0 {
			buf = make([]T, len(dst))
		}
		pending++
		go func() {
			into := buf
			if into == nil {
				into = dst
			}
			err := fetchChunk(ctx, nd, k, n, seed, into, start)
			ch <- result{cand: k, hedged: hedged, buf: buf, err: err}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if nd.cfg.HedgeAfter > 0 && len(cands) > 1 {
		timer := time.NewTimer(nd.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}
	var attempts []error
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: reading shard slot %d: %w", slot, ctx.Err())
		case <-hedgeC:
			hedgeC = nil
			if launched < len(cands) {
				nd.serveEvent(nd.hedgedReqs, cands[launched], RoundServe, slot, "hedge")
				launch(true)
			}
		case res := <-ch:
			pending--
			if res.err == nil {
				if res.buf != nil {
					drain() // the racer writing dst, if any, has returned
					copy(dst, res.buf)
				}
				if res.hedged {
					nd.serveEvent(nd.hedgeWins, res.cand, RoundServe, slot, "hedge_win")
				}
				return nil
			}
			attempts = append(attempts, res.err)
			if ctx.Err() != nil {
				// The reader left: no failover on its behalf.
				return fmt.Errorf("cluster: reading shard slot %d: %w", slot, ctx.Err())
			}
			if launched < len(cands) {
				nd.serveEvent(nd.failovers, cands[launched], RoundServe, slot, "failover")
				launch(false)
			} else if pending == 0 {
				return fmt.Errorf("cluster: no replica of shard slot %d answered: %w", slot, errors.Join(attempts...))
			}
		}
	}
}

// handleStatus serves a JSON introspection page: the node's place in
// the cluster, its replica duties, the peer list and each peer's
// observed health, resident shards and traffic counters — the
// operator's first stop when two nodes disagree (see OPERATIONS.md).
func (nd *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	type shardInfo struct {
		Slot  int    `json:"slot"`
		N     int64  `json:"n"`
		Seed  uint64 `json:"seed"`
		Start int64  `json:"start"`
		End   int64  `json:"end"`
	}
	var resident []shardInfo
	for k, sh := range nd.shards.All() {
		resident = append(resident, shardInfo{Slot: k.slot, N: k.n, Seed: k.seed, Start: sh.Start, End: sh.End})
	}
	states := nd.health.snapshot()
	peerHealth := make([]string, len(states))
	for k, s := range states {
		if k == nd.cfg.Self {
			peerHealth[k] = "self"
		} else {
			peerHealth[k] = s.String()
		}
	}
	// The counters are the node's permd_cluster_*_total families.
	counters := make(map[string]int64)
	for name, v := range nd.met.Values() {
		counters[strings.TrimSuffix(strings.TrimPrefix(name, "permd_cluster_"), "_total")] = v
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"node":            nd.cfg.Self,
		"nodes":           len(nd.cfg.Peers),
		"procs":           nd.cfg.Procs,
		"replicas":        nd.cfg.Replicas,
		"duties":          nd.duties(nd.cfg.Self),
		"peers":           nd.cfg.Peers,
		"peer_health":     peerHealth,
		"geometry_hash":   nd.Geometry().Hash(),
		"max_shards":      nd.cfg.MaxShards,
		"resident_shards": resident,
		"counters":        counters,
	})
}
