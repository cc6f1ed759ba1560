package cluster

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Peer health is tracked first-hand and spread second-hand. First-hand:
// every request this node sends to a peer reports success or failure to
// the tracker — one failure makes the peer suspect (deprioritized),
// failThreshold consecutive failures make it down (skipped while the
// probation window runs). Second-hand: every peer call carries this
// node's view in the X-Permd-Health header, and every response (or
// incoming peer request) is absorbed, so sickness observed by one node
// reaches the others on traffic they were exchanging anyway — no
// background prober, no extra connections. Gossip is deliberately
// weaker than observation: a gossiped "down" only ever makes a locally
// healthy peer suspect. Only first-hand failures take a peer fully out
// of the routing order, and only first-hand success (or a join
// handshake) fully restores it.
//
// Health never changes any byte served — it only reorders which replica
// is asked first. The determinism contract is carried entirely by the
// shard-slot streams.

// peerState orders peers for routing. The numeric values are exported
// on /metrics (permd_cluster_peer_health) and must stay stable.
type peerState int

const (
	stateHealthy peerState = 0
	stateSuspect peerState = 1
	stateDown    peerState = 2
)

func (s peerState) String() string {
	switch s {
	case stateSuspect:
		return "suspect"
	case stateDown:
		return "down"
	}
	return "healthy"
}

// failThreshold is the number of consecutive first-hand failures that
// take a peer from healthy to down.
const failThreshold = 2

// probeSick is how long a peer marked down by first-hand failures is
// skipped by routing before it is probed again. A rejoining peer clears
// its sick mark immediately via the join handshake instead of waiting
// this out.
const probeSick = 2 * time.Second

// health is one node's view of its peers. All methods are safe for
// concurrent use.
type health struct {
	// onChange, when set, is told about every state transition (from,
	// to) of a peer — the cluster node wires it to the event bus. It is
	// called with h.mu held, so it must not call back into this tracker
	// (a bus publish does not).
	onChange func(k int, from, to peerState)

	mu    sync.Mutex
	state []peerState
	fails []int       // consecutive first-hand failures
	since []time.Time // last state change
}

func newHealth(peers int) *health {
	return &health{
		state: make([]peerState, peers),
		fails: make([]int, peers),
		since: make([]time.Time, peers),
	}
}

func (h *health) set(k int, s peerState) {
	if h.state[k] != s {
		from := h.state[k]
		h.state[k] = s
		h.since[k] = time.Now()
		if h.onChange != nil {
			h.onChange(k, from, s)
		}
	}
}

// success records a first-hand answer from peer k and fully restores it.
func (h *health) success(k int) {
	h.mu.Lock()
	h.fails[k] = 0
	h.set(k, stateHealthy)
	h.mu.Unlock()
}

// failure records a first-hand failed call to peer k.
func (h *health) failure(k int) {
	h.mu.Lock()
	h.fails[k]++
	if h.fails[k] >= failThreshold {
		h.set(k, stateDown)
	} else {
		h.set(k, stateSuspect)
	}
	h.mu.Unlock()
}

// suspect records second-hand evidence against peer k: gossip can
// deprioritize a healthy peer but never mark it down.
func (h *health) suspect(k int) {
	h.mu.Lock()
	if h.state[k] == stateHealthy {
		h.set(k, stateSuspect)
	}
	h.mu.Unlock()
}

// snapshot returns the current state of every peer.
func (h *health) snapshot() []peerState {
	h.mu.Lock()
	out := append([]peerState(nil), h.state...)
	h.mu.Unlock()
	return out
}

// rank orders candidate peer indices for a read: healthy first, then
// suspect, then down peers whose probation window has elapsed, then
// down peers — the last resort, kept so a fully sick replica set still
// gets one honest attempt instead of a synthetic error. The sort is
// stable, so the caller's preference order (primary replica first)
// breaks ties.
func (h *health) rank(cands []int) []int {
	h.mu.Lock()
	score := func(k int) int {
		switch h.state[k] {
		case stateHealthy:
			return 0
		case stateSuspect:
			return 1
		default:
			if time.Since(h.since[k]) >= probeSick {
				return 2
			}
			return 3
		}
	}
	out := append([]int(nil), cands...)
	sort.SliceStable(out, func(i, j int) bool { return score(out[i]) < score(out[j]) })
	h.mu.Unlock()
	return out
}

// gossip encodes the non-healthy part of this node's view for the
// X-Permd-Health header: "1:d,3:s" — peer index, colon, state letter.
// An empty string means every peer looks healthy from here.
func (h *health) gossip() string {
	h.mu.Lock()
	var sb strings.Builder
	for k, s := range h.state {
		if s == stateHealthy {
			continue
		}
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(k))
		sb.WriteByte(':')
		if s == stateDown {
			sb.WriteByte('d')
		} else {
			sb.WriteByte('s')
		}
	}
	h.mu.Unlock()
	return sb.String()
}

// absorb merges a peer's gossiped view into this node's. Entries about
// this node itself and about the sender are ignored — a node is never
// talked into distrusting its own counterparty mid-call, and never
// trusts hearsay about itself. Malformed entries are skipped: the
// header is advisory, not load-bearing.
func (h *health) absorb(hdr string, sender, self int) {
	if hdr == "" {
		return
	}
	for _, ent := range strings.Split(hdr, ",") {
		idx, st, ok := strings.Cut(ent, ":")
		if !ok {
			continue
		}
		k, err := strconv.Atoi(idx)
		if err != nil || k < 0 || k >= len(h.state) || k == self || k == sender {
			continue
		}
		if st == "d" || st == "s" {
			h.suspect(k)
		}
	}
}
