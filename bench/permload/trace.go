package main

import (
	"cmp"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"randperm/internal/events"
)

// The tracer records spans from outside the program: around the bench
// client's requests, around each node's handler and its ResponseWriter
// writes, and from the cluster_round events the nodes already publish.
// Spans stay in memory until the run ends.

// benchReqHeader carries the client span id to the handler wrapper.
const benchReqHeader = "X-Bench-Req"

// fromHeader is the header a cluster node puts on its peer calls, naming
// itself.
const fromHeader = "X-Permd-From"

type spanKind uint8

const (
	kindClient   spanKind = iota // bench client: send until the last body byte
	kindHandler                  // a node serving a public request
	kindWrite                    // one ResponseWriter.Write inside a handler
	kindExchange                 // a node serving /v1/cluster/exchange
	kindProxy                    // a node serving /v1/cluster/chunk
	kindRound1                   // cluster round 1, the matrix
	kindRound2                   // cluster round 2, the exchange
	kindRound3                   // cluster round 3, the arrangement
	kindCount
)

var kindNames = [kindCount]string{
	"transport", "service.handler", "write", "cluster.exchange", "cluster.proxy",
	"cluster.round1", "cluster.round2", "cluster.round3",
}

// span is one timed interval, in nanoseconds since the tracer's epoch.
type span struct {
	id, parent int64
	start, end int64
	seed       uint64 // the request's seed, on client and round spans
	kind       spanKind
	node       int8 // serving node; -1 for the client
	from       int8 // calling node of a peer call; -1 otherwise
}

type tracer struct {
	epoch    time.Time
	enabled  atomic.Bool
	nextID   atomic.Int64
	inflight atomic.Int64 // client span that peer calls are charged to

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap is the boot hook that puts node's handler behind the tracer.
func (t *tracer) wrap(node int, h http.Handler) http.Handler {
	return &tracedHandler{t: t, node: int8(node), next: h}
}

type tracedHandler struct {
	t    *tracer
	node int8
	next http.Handler
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.t
	if !t.enabled.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	s := span{id: t.nextID.Add(1), parent: t.inflight.Load(), kind: kindHandler, node: h.node, from: -1}
	switch r.URL.Path {
	case "/v1/cluster/exchange":
		s.kind = kindExchange
	case "/v1/cluster/chunk":
		s.kind = kindProxy
	}
	if v, err := strconv.ParseInt(r.Header.Get(benchReqHeader), 10, 64); err == nil {
		s.parent = v
	}
	if v, err := strconv.Atoi(r.Header.Get(fromHeader)); err == nil {
		s.from = int8(v)
	}
	began := time.Now()
	h.next.ServeHTTP(&timedWriter{ResponseWriter: w, t: t, parent: s.id, node: h.node}, r)
	s.start, s.end = t.ns(began), t.ns(time.Now())
	t.add(s)
}

// timedWriter records each Write, which includes waiting on socket
// backpressure.
type timedWriter struct {
	http.ResponseWriter
	t      *tracer
	parent int64
	node   int8
}

func (w *timedWriter) Write(p []byte) (int, error) {
	began := time.Now()
	n, err := w.ResponseWriter.Write(p)
	w.t.add(span{id: w.t.nextID.Add(1), parent: w.parent, start: w.t.ns(began), end: w.t.ns(time.Now()), kind: kindWrite, node: w.node, from: -1})
	return n, err
}

func (w *timedWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// watchRounds turns the cluster_round events of every bus into round
// spans until the returned stop is called; stop reports the events the
// subscriptions dropped.
func (t *tracer) watchRounds(buses []*events.Bus) (stop func() int64, err error) {
	var subs []*events.Subscription
	var wg sync.WaitGroup
	epochUnix := t.epoch.UnixNano()
	for _, b := range buses {
		sub, err := b.Subscribe(events.TypeSet(0).With(events.TypeClusterRound), b.LastSeq())
		if err != nil {
			for _, s := range subs {
				s.Close()
			}
			wg.Wait()
			return nil, err
		}
		subs = append(subs, sub)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range sub.Events() {
				// Round 0 marks serve-time hedges and failovers, not a
				// build round; "failed" rounds end in an error response.
				if ev.Round < 1 || ev.Round > 3 || ev.Detail == "failed" {
					continue
				}
				end := ev.TimeNs - epochUnix
				t.add(span{id: t.nextID.Add(1), start: end - ev.Ns, end: end, seed: ev.Seed,
					kind: kindRound1 + spanKind(ev.Round-1), node: int8(ev.Peer), from: -1})
			}
		}()
	}
	return func() int64 {
		var dropped int64
		for _, s := range subs {
			s.Close()
		}
		wg.Wait()
		for _, s := range subs {
			dropped += int64(s.Dropped())
		}
		return dropped
	}, nil
}

// link attaches the cluster's spans to the calls that caused them. The
// wrapper charges peer calls to the in-flight pull; round spans name the
// pull's seed. Within one pull, a node's rounds belong to the span in
// which that node served the pull (node 0's handler, node 1's proxy
// read), a proxy read to the caller's serving span, and an exchange to
// the caller's round 2, during which it was fetched.
func link(spans []span) {
	type nodeKey struct {
		pull int64
		node int8
	}
	pullOf := map[uint64]int64{} // seed -> client span
	for _, s := range spans {
		if s.kind == kindClient {
			pullOf[s.seed] = s.id
		}
	}
	serving := map[nodeKey]int64{}
	round2 := map[nodeKey]int64{}
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case kindHandler, kindProxy:
			serving[nodeKey{s.parent, s.node}] = s.id
		case kindRound1, kindRound2, kindRound3:
			s.parent = pullOf[s.seed]
			if s.kind == kindRound2 {
				round2[nodeKey{s.parent, s.node}] = s.id
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		var p int64
		switch s.kind {
		case kindProxy:
			p = serving[nodeKey{s.parent, s.from}]
		case kindExchange:
			p = round2[nodeKey{s.parent, s.from}]
		case kindRound1, kindRound2, kindRound3:
			p = serving[nodeKey{s.parent, s.node}]
		}
		if p != 0 {
			s.parent = p
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover.
func selfTimes(spans []span) []int64 {
	pos := spanIndex(spans)
	head := make([]int32, len(spans))
	next := make([]int32, len(spans))
	for i := range head {
		head[i] = -1
	}
	for i, s := range spans {
		if p := lookup(pos, s.parent); p >= 0 {
			next[i], head[p] = head[p], int32(i)
		}
	}
	self := make([]int64, len(spans))
	var ivs [][2]int64
	for i, s := range spans {
		ivs = ivs[:0]
		for c := head[i]; c >= 0; c = next[c] {
			if a, b := max(spans[c].start, s.start), min(spans[c].end, s.end); a < b {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
		covered, reach := int64(0), s.start
		for _, iv := range ivs {
			if a := max(iv[0], reach); iv[1] > a {
				covered += iv[1] - a
				reach = iv[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanIndex maps span ids, which the tracer hands out densely, to their
// position in spans.
func spanIndex(spans []span) []int32 {
	var maxID int64
	for _, s := range spans {
		maxID = max(maxID, s.id)
	}
	pos := make([]int32, maxID+1)
	for i := range pos {
		pos[i] = -1
	}
	for i, s := range spans {
		pos[s.id] = int32(i)
	}
	return pos
}

func lookup(pos []int32, id int64) int32 {
	if id <= 0 || id >= int64(len(pos)) {
		return -1
	}
	return pos[id]
}

// layerTimes sums the spans under completed client spans, by layer.
type layerTimes struct {
	reqs   int64
	client int64              // client span durations
	dur    [kindCount]int64   // durations by kind, writes excepted
	self   [kindCount]int64   // self times by kind, writes excepted
	writes map[spanKind]int64 // write durations by the kind of span that wrote
}

// sumLayers links spans, computes self times and sums them per kind over
// the trees rooted at client spans.
func sumLayers(spans []span) layerTimes {
	link(spans)
	self := selfTimes(spans)
	pos := spanIndex(spans)
	lt := layerTimes{writes: map[spanKind]int64{}}
	// root[i] is the client span above span i, or -1.
	root := make([]int32, len(spans))
	for i := range root {
		root[i] = -2
	}
	var find func(i int32, depth int) int32
	find = func(i int32, depth int) int32 {
		if root[i] != -2 {
			return root[i]
		}
		r := int32(-1)
		if spans[i].kind == kindClient {
			r = i
		} else if p := lookup(pos, spans[i].parent); p >= 0 && depth < 32 {
			r = find(p, depth+1)
		}
		root[i] = r
		return r
	}
	for i, s := range spans {
		if find(int32(i), 0) < 0 {
			continue
		}
		d := s.end - s.start
		if s.kind == kindClient {
			lt.reqs++
			lt.client += d
		}
		if s.kind == kindWrite {
			if p := lookup(pos, s.parent); p >= 0 {
				lt.writes[spans[p].kind] += d
			}
			continue
		}
		lt.dur[s.kind] += d
		lt.self[s.kind] += self[i]
	}
	return lt
}

// writeSpans saves spans as JSON for offline inspection.
func writeSpans(path string, spans []span) error {
	type out struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Name   string `json:"name"`
		Node   int8   `json:"node"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s.id, s.parent, kindNames[s.kind], s.node, s.start, s.end}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
