package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"randperm/internal/commat"
	"randperm/internal/core"
	"randperm/internal/engine"
	"randperm/internal/events"
	"randperm/internal/metrics"
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

// queryInt64 parses a required decimal query parameter.
func queryInt64(r *http.Request, name string) (int64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing %s", name)
	}
	x, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: want a decimal integer", name, v)
	}
	return x, nil
}

// queryN parses and gates the domain size of a peer request: the
// peer-facing endpoints must not accept work the public API would
// refuse (Config.MaxN).
func (nd *Node) queryN(r *http.Request) (int64, error) {
	n, err := queryInt64(r, "n")
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad n: %v", err)
	}
	if nd.cfg.MaxN > 0 && n > nd.cfg.MaxN {
		return 0, fmt.Errorf("n=%d exceeds this node's bound %d", n, nd.cfg.MaxN)
	}
	return n, nil
}

// handleExchange serves round 2 to one requesting peer: the label
// arrangements of source slot `from`'s blocks are drawn from their
// streams and the payload segments destined for target slot `to`'s
// blocks are streamed out, each prefixed with the matrix entry it
// realizes. The node serves any source slot it replicates — the
// arrangements are derived from the slot's streams, so every duty
// holder ships identical bytes — and refuses slots outside its duty,
// which is what keeps R=1 failures honest: a dead primary's
// contributions are then not derivable from anyone, and the build
// errors instead of silently recomputing the whole cluster's work on
// one box.
//
// The handler is deliberately stateless: the matrix and arrangements
// are recomputed per request rather than cached per (n, seed). With
// N-1 requesters per permutation that redoes the O(n/N) arrangement
// work N-1 times per slot — the trade is bounded peer-facing memory
// (O(m_i) per in-flight request, no second cache to size against the
// shard LRU) for CPU. Profiles of a cold 2-node pull put this
// endpoint's cost in the wire codec, not in ArrangeRow — it was a call
// and an 8-byte allocation per value — hence the page encoding below.
func (nd *Node) handleExchange(w http.ResponseWriter, r *http.Request) {
	nd.exchangeReqs.Add(1)
	q := r.URL.Query()
	n, err := nd.queryN(r)
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster: %v", err), http.StatusBadRequest)
		return
	}
	seed, err := strconv.ParseUint(q.Get("seed"), 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster: bad seed %q", q.Get("seed")), http.StatusBadRequest)
		return
	}
	// Config echo: a requester with a different width or layout gets a
	// conflict naming both values, the cluster's first line of defense
	// against serving bytes from a different permutation.
	if pv := q.Get("p"); pv != strconv.Itoa(nd.cfg.Procs) {
		http.Error(w, fmt.Sprintf("cluster: decomposition width mismatch: peer p=%s, this node p=%d", pv, nd.cfg.Procs), http.StatusConflict)
		return
	}
	if nv := q.Get("nodes"); nv != strconv.Itoa(len(nd.cfg.Peers)) {
		http.Error(w, fmt.Sprintf("cluster: cluster size mismatch: peer nodes=%s, this node nodes=%d", nv, len(nd.cfg.Peers)), http.StatusConflict)
		return
	}
	from64, err := queryInt64(r, "from")
	from := int(from64)
	if err != nil || from < 0 || from >= len(nd.cfg.Peers) {
		http.Error(w, fmt.Sprintf("cluster: bad from=%q: want a shard slot in [0, %d)", q.Get("from"), len(nd.cfg.Peers)), http.StatusBadRequest)
		return
	}
	if !nd.hasDuty(nd.cfg.Self, from) {
		http.Error(w, fmt.Sprintf("cluster: this node does not replicate source slot %d (replicas=%d)", from, nd.cfg.Replicas), http.StatusForbidden)
		return
	}
	to64, err := queryInt64(r, "to")
	to := int(to64)
	if err != nil || to < 0 || to >= len(nd.cfg.Peers) {
		http.Error(w, fmt.Sprintf("cluster: bad to=%q: want a shard slot in [0, %d)", q.Get("to"), len(nd.cfg.Peers)), http.StatusBadRequest)
		return
	}

	leg := exchangeLeg{seed: seed, n: n, p: nd.cfg.Procs, nodes: len(nd.cfg.Peers), from: from, to: to}
	sizes := core.EvenBlocks(n, leg.p)
	off := blockOffsets(n, leg.p)
	streams := engine.CGMStreams(seed, leg.p)
	a := commat.SampleSeq(streams[0], sizes, sizes)
	sLo, sHi := blockSpan(leg.p, leg.nodes, from) // the served source slot's blocks
	tLo, tHi := blockSpan(leg.p, leg.nodes, to)   // the requested target slot's blocks

	w.Header().Set("Content-Type", "application/octet-stream")
	page := leg.appendHeader(make([]byte, 0, 1<<15))
	if _, err := w.Write(page); err != nil {
		return
	}
	// Each source block's segments are laid out in the page as on the
	// wire — i, then per target its count and payload — with a write
	// cursor per target, and one pass over the labels fills them all.
	// Labels of targets outside the requested slot write to an 8-byte
	// sink past the block and never advance, which keeps the loop free
	// of a data-dependent branch.
	cur := make([]int, leg.p)
	step := make([]int, leg.p)
	for j := tLo; j < tHi; j++ {
		step[j] = 8
	}
	var shipped int64
	for i := sLo; i < sHi; i++ {
		labels := engine.ArrangeRow(streams[1+i], a.Row(i))
		size := 4
		for j := tLo; j < tHi; j++ {
			cur[j] = size + 8
			size += 8 + 8*int(a.At(i, j))
		}
		for j := range cur {
			if step[j] == 0 {
				cur[j] = size
			}
		}
		page = slices.Grow(page[:0], size+8)[:size+8]
		binary.LittleEndian.PutUint32(page, uint32(int32(i)))
		for j := tLo; j < tHi; j++ {
			binary.LittleEndian.PutUint64(page[cur[j]-8:], uint64(a.At(i, j)))
			shipped += a.At(i, j)
		}
		v := uint64(off[i])
		for _, lab := range labels {
			c := cur[lab]
			binary.LittleEndian.PutUint64(page[c:c+8], v)
			cur[lab] = c + step[lab]
			v++
		}
		if _, err := w.Write(page[:size]); err != nil {
			return
		}
	}
	nd.exchangeItems.Add(shipped)
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
func (nd *Node) fetchExchangeSlot(from, to int, n int64, seed uint64, a *commat.Matrix, dst func(i, j int) []int64) error {
	cands := nd.health.rank(nd.replicasOf(from))
	var attempts []error
	for try, k := range cands {
		if try > 0 {
			nd.serveEvent(nd.failovers, k, RoundExchange, from, "failover")
		}
		err := nd.fetchExchange(k, from, to, n, seed, a, dst)
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
func (nd *Node) fetchExchange(k, from, to int, n int64, seed uint64, a *commat.Matrix, dst func(i, j int) []int64) error {
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
// a_ij values. The header must echo leg, source blocks must arrive in
// sequence, every count must equal the local matrix entry — checked
// before anything is allocated for the segment — and the body must end
// after the last segment. Each segment's payload is read whole, with
// one io.ReadFull, into a page sized once for the leg's largest a_ij,
// so no response can make the decoder allocate more than that.
//
// dst must tolerate partial decoding before an error: segments are
// verified before they are decoded and identical across replicas, so a
// retry against another replica simply overwrites the same values.
func decodeExchange(body io.Reader, leg exchangeLeg, a *commat.Matrix, dst func(i, j int) []int64) error {
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
			seg := dst(i, j)[:count]
			for t := range seg {
				seg[t] = int64(binary.LittleEndian.Uint64(payload[8*t:]))
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
	n, err := nd.queryN(r)
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster: %v", err), http.StatusBadRequest)
		return
	}
	seed, err := strconv.ParseUint(r.URL.Query().Get("seed"), 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster: bad seed %q", r.URL.Query().Get("seed")), http.StatusBadRequest)
		return
	}
	start, err := queryInt64(r, "start")
	if err != nil || start < 0 {
		http.Error(w, fmt.Sprintf("cluster: bad start: %v", err), http.StatusBadRequest)
		return
	}
	length, err := queryInt64(r, "len")
	if err != nil || length < 0 {
		http.Error(w, fmt.Sprintf("cluster: bad len: %v", err), http.StatusBadRequest)
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
	vals := sh.Vals[start-sh.Start : start-sh.Start+length]
	page := make([]byte, min(chunkPage, 8*len(vals)))
	for len(vals) > 0 {
		m := min(len(vals), chunkPage/8)
		for t, v := range vals[:m] {
			binary.LittleEndian.PutUint64(page[8*t:], uint64(v))
		}
		if _, err := w.Write(page[:8*m]); err != nil {
			return
		}
		vals = vals[m:]
	}
	nd.chunkItems.Add(length)
}

// chunkPage is the byte page both ends of /v1/cluster/chunk code
// through: 4096 little-endian int64s.
const chunkPage = 1 << 15

// fetchChunk pulls values [start, start+len(dst)) of slot's shard from
// peer k into dst, decoding the body page by page; a body that ends
// early or runs past the last value is refused. ctx is the hedging
// seam: a losing racer is cancelled here, and the cancellation is not
// held against k's health. On an error dst may hold part of the span.
func (nd *Node) fetchChunk(ctx context.Context, k int, n int64, seed uint64, dst []int64, start int64) error {
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
	page := make([]byte, min(chunkPage, 8*len(dst)))
	for rest := dst; len(rest) > 0; {
		m := min(len(rest), chunkPage/8)
		if _, err := io.ReadFull(resp.Body, page[:8*m]); err != nil {
			return nd.peerError(k, RoundServe, "chunk", fmt.Errorf("short read: %w", err))
		}
		for t := range rest[:m] {
			rest[t] = int64(binary.LittleEndian.Uint64(page[8*t:]))
		}
		rest = rest[m:]
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
func (nd *Node) readRemoteSpan(ctx context.Context, slot int, n int64, seed uint64, dst []int64, start int64) error {
	cands := nd.health.rank(nd.replicasOf(slot))
	ctx, cancel := context.WithCancel(ctx)

	type result struct {
		cand   int
		hedged bool
		buf    []int64 // nil when the racer decoded into dst
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
		var buf []int64
		if pending > 0 {
			buf = make([]int64, len(dst))
		}
		pending++
		go func() {
			into := buf
			if into == nil {
				into = dst
			}
			err := nd.fetchChunk(ctx, k, n, seed, into, start)
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
	nd.mu.Lock()
	for el := nd.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*shardEntry)
		if e.built.Load() && e.err == nil {
			resident = append(resident, shardInfo{
				Slot: e.key.slot, N: e.key.n, Seed: e.key.seed, Start: e.sh.Start, End: e.sh.End,
			})
		}
	}
	nd.mu.Unlock()
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
