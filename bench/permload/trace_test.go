package main

import "testing"

// TestSelfTimes: a span's self time is its duration minus the union of
// its children's intervals, clipped to its own.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100, kind: kindClient},
		{id: 2, parent: 1, start: 10, end: 90, kind: kindHandler},
		{id: 3, parent: 2, start: 20, end: 30, kind: kindWrite},
		{id: 4, parent: 2, start: 25, end: 40, kind: kindWrite}, // overlaps 3
		{id: 5, parent: 2, start: 50, end: 60, kind: kindWrite},
		{id: 6, parent: 2, start: 85, end: 95, kind: kindWrite}, // runs past its parent
		{id: 7, parent: 99, start: 0, end: 5, kind: kindWrite},  // orphan
	}
	want := []int64{20, 80 - 20 - 10 - 5, 10, 15, 10, 10, 5}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", spans[i].id, got[i], want[i])
		}
	}
}

// TestLinkClusterPull builds the spans of one cold pull on a two-node
// cluster as the tracer records them and checks that linking puts every
// peer call under its cause, so the self times add up to the client's.
func TestLinkClusterPull(t *testing.T) {
	const seed = 42
	spans := []span{
		{id: 1, start: 0, end: 1000, kind: kindClient, node: -1, from: -1, seed: seed},
		{id: 2, parent: 1, start: 10, end: 990, kind: kindHandler, node: 0, from: -1},
		// node 0 builds its shard; its round 2 fetches from node 1
		{id: 10, start: 20, end: 30, kind: kindRound1, node: 0, seed: seed},
		{id: 11, start: 30, end: 200, kind: kindRound2, node: 0, seed: seed},
		{id: 3, parent: 1, start: 50, end: 150, kind: kindExchange, node: 1, from: 0},
		{id: 12, start: 200, end: 250, kind: kindRound3, node: 0, seed: seed},
		// node 0 reads node 1's shard, which node 1 builds on the way
		{id: 4, parent: 1, start: 300, end: 700, kind: kindProxy, node: 1, from: 0},
		{id: 13, start: 310, end: 320, kind: kindRound1, node: 1, seed: seed},
		{id: 14, start: 320, end: 500, kind: kindRound2, node: 1, seed: seed},
		{id: 5, parent: 1, start: 340, end: 480, kind: kindExchange, node: 0, from: 1},
		{id: 15, start: 500, end: 560, kind: kindRound3, node: 1, seed: seed},
		{id: 6, parent: 4, start: 600, end: 690, kind: kindWrite, node: 1},
		{id: 7, parent: 2, start: 800, end: 980, kind: kindWrite, node: 0},
	}
	lt := sumLayers(spans)
	wantParent := map[int64]int64{2: 1, 10: 2, 11: 2, 3: 11, 12: 2, 4: 2, 13: 4, 14: 4, 5: 14, 15: 4, 6: 4, 7: 2}
	for _, s := range spans {
		if p, ok := wantParent[s.id]; ok && s.parent != p {
			t.Errorf("span %d (%s): parent %d, want %d", s.id, kindNames[s.kind], s.parent, p)
		}
	}
	if lt.reqs != 1 || lt.client != 1000 {
		t.Fatalf("reqs %d client %d, want 1 and 1000", lt.reqs, lt.client)
	}
	var sum int64
	for k := range lt.self {
		if lt.self[k] < 0 {
			t.Errorf("%s: negative self time %d", kindNames[k], lt.self[k])
		}
		sum += lt.self[k]
	}
	for _, w := range lt.writes {
		sum += w
	}
	if sum != lt.client {
		t.Errorf("self times sum to %d, want the client's %d", sum, lt.client)
	}
	// The handler's children are node 0's three rounds, the proxy read
	// and its own write.
	if got := lt.self[kindHandler]; got != 980-10-170-50-400-180 {
		t.Errorf("handler self %d", got)
	}
}
