package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"randperm/internal/events"
	"randperm/internal/query"
)

// publishJoin reports one handshake resolution: Detail "in" for a
// handshake served to a peer, "out" for one this node dialed; State is
// the outcome ("ok", "mismatch" or "error").
func (nd *Node) publishJoin(peer int, detail, state string) {
	ev := events.New(events.TypeJoinResult)
	ev.Peer = peer
	ev.Detail = detail
	ev.State = state
	nd.publish(ev)
}

// The join handshake is the cluster's membership seam, and it is
// deliberately stateless: because every shard slot's bytes re-derive
// from (seed, n, p, slot), a node that (re)joins has nothing to
// migrate — it only has to prove it will derive the SAME bytes, which
// reduces to agreeing on the geometry (Procs, Replicas, Peers). The
// handshake exchanges a hash of that geometry; a match admits the
// node and clears any sick mark its peers held against it (this is how
// a restarted node returns to the routing order immediately instead of
// waiting out probeSick), a mismatch is a hard 409 that the caller
// must treat as fatal. Shards then rebuild lazily from the streams on
// first touch, exactly like a cold start.

// Geometry is the layout every node must agree on for the cluster to
// serve one consistent permutation space. It deliberately excludes
// anything per-request (seed, n) and anything node-local (cache
// sizes, hedging): those either version the permutation itself
// or cannot affect any byte served.
type Geometry struct {
	Procs    int      `json:"procs"`
	Replicas int      `json:"replicas"`
	Peers    []string `json:"peers"`
}

// Geometry returns this node's view of the cluster layout.
func (nd *Node) Geometry() Geometry {
	return Geometry{
		Procs:    nd.cfg.Procs,
		Replicas: nd.cfg.Replicas,
		Peers:    append([]string(nil), nd.cfg.Peers...),
	}
}

// Hash returns a short hex digest of the canonical JSON encoding —
// what the join handshake actually compares. Two nodes with equal
// hashes derive identical shard bytes for every (seed, n).
func (g Geometry) Hash() string {
	b, _ := json.Marshal(g)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// ErrGeometryMismatch is returned (wrapped) by Join and JoinAll when a
// peer runs a different geometry. It is fatal by design: a node that
// disagrees on Procs, Replicas or the peer list would derive different
// bytes, and must not serve.
var ErrGeometryMismatch = errors.New("cluster: geometry mismatch")

// handleJoin serves GET /v1/cluster/join?node=&hash=: the deterministic
// membership handshake. The response always carries this node's
// geometry and hash, so a joiner can print exactly what disagreed; a
// matching hash additionally clears any down/suspect mark held against
// the joining node — the join IS the rejoin protocol.
func (nd *Node) handleJoin(w http.ResponseWriter, r *http.Request) {
	nd.joinReqs.Add(1)
	rd := query.New(r.URL.Query())
	node64 := rd.Count(rd.Required("node"), 0)
	rd.Check(node64 < int64(len(nd.cfg.Peers)), "bad node=%d: want an index in [0, %d)", node64, len(nd.cfg.Peers))
	if refused(w, rd) {
		return
	}
	node := int(node64)
	g := nd.Geometry()
	hash := g.Hash()
	body := map[string]any{"node": nd.cfg.Self, "geometry": g, "hash": hash}
	w.Header().Set("Content-Type", "application/json")
	if got := rd.Get("hash"); got != hash {
		nd.publishJoin(node, "in", "mismatch")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(body)
		return
	}
	nd.publishJoin(node, "in", "ok")
	if node != nd.cfg.Self {
		nd.health.success(node)
	}
	states := nd.health.snapshot()
	peerHealth := make([]string, len(states))
	for k, s := range states {
		peerHealth[k] = s.String()
	}
	body["peer_health"] = peerHealth
	json.NewEncoder(w).Encode(body)
}

// Join runs the handshake against peer k: it announces this node's
// index and geometry hash and verifies the peer agrees. A geometry
// disagreement returns an error wrapping ErrGeometryMismatch (and
// naming both hashes); an unreachable peer returns a *PeerError. A nil
// error means peer k agreed and has restored this node in its routing
// order.
func (nd *Node) Join(ctx context.Context, k int) error {
	u := fmt.Sprintf("%s/v1/cluster/join?node=%d&hash=%s", nd.cfg.Peers[k], nd.cfg.Self, nd.Geometry().Hash())
	resp, err := nd.peerGet(ctx, k, u)
	if err != nil {
		nd.publishJoin(k, "out", "error")
		return nd.peerError(k, RoundServe, "join", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		nd.publishJoin(k, "out", "ok")
		return nil
	case http.StatusConflict:
		nd.publishJoin(k, "out", "mismatch")
		var remote struct {
			Geometry Geometry `json:"geometry"`
			Hash     string   `json:"hash"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&remote); err != nil {
			return nd.peerError(k, RoundServe, "join", fmt.Errorf("%w: peer refused and sent an unreadable geometry: %v", ErrGeometryMismatch, err))
		}
		return nd.peerError(k, RoundServe, "join", fmt.Errorf(
			"%w: this node %s (p=%d replicas=%d nodes=%d), peer %s (p=%d replicas=%d nodes=%d)",
			ErrGeometryMismatch,
			nd.Geometry().Hash(), nd.cfg.Procs, nd.cfg.Replicas, len(nd.cfg.Peers),
			remote.Hash, remote.Geometry.Procs, remote.Geometry.Replicas, len(remote.Geometry.Peers)))
	default:
		nd.publishJoin(k, "out", "error")
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nd.peerError(k, RoundServe, "join", fmt.Errorf("%s: %s", resp.Status, msg))
	}
}

// JoinAll runs the handshake against every peer, polling unreachable
// ones until ctx expires — the readiness pattern for a cluster whose
// nodes boot concurrently. A geometry mismatch from any peer aborts
// immediately with ErrGeometryMismatch in the chain; peers still
// unreached when ctx expires are reported in the returned error. A nil
// return means every peer agreed on the geometry.
func (nd *Node) JoinAll(ctx context.Context) error {
	pending := make(map[int]error)
	for k := range nd.cfg.Peers {
		if k != nd.cfg.Self {
			pending[k] = nil
		}
	}
	for len(pending) > 0 {
		for k := range pending {
			err := nd.Join(ctx, k)
			if err == nil {
				delete(pending, k)
				continue
			}
			if errors.Is(err, ErrGeometryMismatch) {
				return err
			}
			pending[k] = err
		}
		if len(pending) == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			var errs []error
			for _, err := range pending {
				if err != nil {
					errs = append(errs, err)
				}
			}
			return fmt.Errorf("cluster: join incomplete, %d peer(s) unreached: %w", len(pending), errors.Join(errs...))
		case <-time.After(250 * time.Millisecond):
		}
	}
	return nil
}
