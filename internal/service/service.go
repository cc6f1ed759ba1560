// Package service implements permd, the permutation-as-a-service
// daemon: the package's streaming Permuter machinery behind a
// concurrent, cacheable HTTP API. One running daemon gives a fleet of
// clients shard assignment, replayable shuffles and O(1) point queries
// over huge index domains, with the determinism contract of the library
// carried over the wire: for a server pinned to one decomposition width,
// (seed, n, backend) fully determine every byte of a chunk response,
// across requests, restarts and replicas.
//
// The core is a handle cache: an LRU of seeded Permuter handles keyed by
// (n, seed, backend), with single-flight construction so concurrent
// requests for the same permutation share one handle — and therefore one
// lazy materialization on the materializing backends. Chunk responses
// stream through fixed-size buffers drawn from a sync.Pool, so a request
// for a billion-value range holds O(MaxChunk) memory, not O(len).
//
// Endpoints (all responses are one decimal value per line unless noted):
//
//	GET  /v1/perm/{seed}/chunk?n=&start=&len=&backend=   π(start)..π(start+len-1)
//	GET  /v1/perm/{seed}/at?n=&i=&backend=               π(i)
//	POST /v1/shuffle?seed=&backend=                      body lines (or JSON array) shuffled
//	GET  /v1/sample?n=&k=&seed=                          uniform k-subset of [0, n)
//	GET  /v1/assign?seed=&n=&id=&spec=                   the id's experiment bucket (workload.go)
//	GET  /v1/epochs?seed=&n=&epoch=&mode=&start=&len=    a chunk of epoch e's shuffle (workload.go)
//	GET  /healthz                                        JSON liveness + config echo
//	GET  /metrics                                        Prometheus text format
//
// In cluster mode (Config.ClusterPeers) the daemon additionally mounts
// the peer-facing /v1/cluster/* endpoints of internal/cluster and
// serves backend=cluster requests from the sharded machinery: this
// node's shard is read locally, every other index range is fetched
// from its owning peer — the response bytes are identical to a
// single-node backend=cluster run for the same (seed, n), which is how
// the deployment is verified (see OPERATIONS.md).
//
// Exactness gating: /v1/shuffle and /v1/sample promise the exactly
// uniform law over all orderings, so /v1/shuffle refuses backends with
// Backend.ExactUniform() == false (HTTP 400) and /v1/sample always runs
// the simulated-machine sampling path. /v1/perm/* serves any backend and
// reports which one in a response header; the non-uniform fine print of
// BackendBijective is the client's to accept — it is the backend that
// makes n beyond memory serveable at all.
package service

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"mime"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"randperm"
	"randperm/internal/cluster"
	"randperm/internal/events"
	"randperm/internal/workload"
)

// Config sizes the daemon. The zero value is usable: every field has a
// default applied by New.
type Config struct {
	// Procs is the decomposition width handed to every Options{} the
	// server builds (default 8). It is pinned server-wide rather than
	// accepted per request so that the HTTP determinism contract needs
	// only (seed, n, backend); replicas that must agree byte-for-byte
	// must share it (on BackendBijective even that is unnecessary — the
	// permutation is a function of (seed, n) alone).
	Procs int
	// MaxHandles caps the Permuter handle LRU (default 64). Each
	// materialized handle for a size-n domain holds 8n bytes; bijective
	// handles hold O(1).
	MaxHandles int
	// MaxN bounds n on every endpoint that materializes or iterates n
	// items — /v1/perm/* on the materializing backends, /v1/shuffle and
	// /v1/sample (default 1 << 24). BackendBijective requests ignore it:
	// they touch only the indexes actually served.
	MaxN int64
	// MaxChunk is the pooled per-request buffer length and the default
	// chunk len when the query omits it (default 65536). Explicit len
	// may exceed it; the response then streams through the buffer in
	// MaxChunk-sized pages.
	MaxChunk int
	// MaxBody caps the /v1/shuffle request body in bytes (default 32 MiB).
	MaxBody int64
	// Quota is the multi-tenant admission budget: per-client token
	// buckets metered in items served (chunk pages, point reads,
	// shuffle items and sample items all pay). The zero value disables
	// metering — the pre-quota behavior. See quota.go and the "Quotas
	// and admission control" section of OPERATIONS.md.
	Quota QuotaConfig
	// MaxBuilds bounds how many materializing handle builds run
	// concurrently (default 4): request number MaxBuilds+1 for a cold
	// materializing key queues for a build slot instead of starting an
	// (MaxBuilds+1)-th n-word build. Bijective handles never occupy a
	// slot — they materialize nothing.
	MaxBuilds int
	// BuildWait is how long a request queues for a build slot before
	// being refused with 503 + Retry-After (default 10s).
	BuildWait time.Duration
	// MaxEpoch bounds the epoch number /v1/epochs accepts (default
	// 1 << 20). Fresh-mode key derivation walks one LongJump per epoch
	// up to e on first touch, so the bound is what keeps a hostile
	// ?epoch=huge from buying 2^63 jumps with one request.
	MaxEpoch int64
	// DefaultBackend serves /v1/perm/* requests that omit ?backend=.
	// It is flag-shaped — "sim", "shmem", "inplace", "bijective" or
	// "cluster", as accepted by randperm.ParseBackend — so the empty
	// string can mean "bijective", the streaming-native backend and the
	// only one that serves n beyond MaxN. /v1/shuffle defaults to
	// BackendSharedMem independently, because its exactness gate would
	// refuse a bijective default.
	DefaultBackend string
	// ClusterPeers turns on cluster mode when non-empty: the base URLs
	// of every permd node in the cluster, in the cluster-wide node
	// order, this node included. All nodes must agree on the list, on
	// Procs (the cluster-wide decomposition width) and on every limit
	// that shapes responses; see OPERATIONS.md. In cluster mode the
	// server mounts the peer-facing /v1/cluster/* endpoints and serves
	// backend=cluster requests from the sharded machinery: values this
	// node owns come from its local shard, the rest are fetched from
	// the owning peers.
	ClusterPeers []string
	// ClusterNode is this node's index in ClusterPeers.
	ClusterNode int
	// ClusterReplicas is the shard replication factor R (default 1):
	// every shard slot is owned by R consecutive nodes, each deriving
	// the slot's bytes independently from the shared streams, so any
	// R-1 nodes can die without changing a byte served. All nodes must
	// agree on it (the join handshake checks).
	ClusterReplicas int
	// ClusterHedge is the latency budget a routed read gives the first
	// replica before racing the next one (0 means the cluster default
	// of 50 ms; negative disables hedging). Node-local: it cannot
	// affect any byte served, only tail latency.
	ClusterHedge time.Duration
	// Events sizes the live event stream (events.go): the internal bus
	// every layer publishes to and GET /v1/events drains. The zero
	// value enables it with the defaults; events are best-effort by
	// contract and cannot affect a byte served.
	Events EventsConfig
}

// EventsConfig sizes the event bus behind GET /v1/events. Zero values
// take the defaults noted per field.
type EventsConfig struct {
	// Buffer is each SSE subscriber's delivery-channel capacity
	// (default 256): the backpressure bound past which a slow consumer
	// loses events (counted in permd_events_dropped_total) rather than
	// slowing anything down.
	Buffer int
	// Replay is the replay-ring capacity (default 1024): how far back
	// a Last-Event-ID resume can reach.
	Replay int
	// MaxSubscribers caps concurrent /v1/events streams (default 64);
	// past it new subscriptions get 503.
	MaxSubscribers int
	// SlowThreshold is the wall time past which a completed request
	// additionally publishes a slow_request event (default 1s;
	// negative disables slow-request events).
	SlowThreshold time.Duration
}

func (c EventsConfig) withDefaults() EventsConfig {
	if c.SlowThreshold == 0 {
		c.SlowThreshold = time.Second
	}
	return c
}

func (c Config) withDefaults() Config {
	if c.Procs <= 0 {
		c.Procs = 8
	}
	if c.MaxHandles <= 0 {
		c.MaxHandles = 64
	}
	if c.MaxN <= 0 {
		c.MaxN = 1 << 24
	}
	if c.MaxChunk <= 0 {
		c.MaxChunk = 1 << 16
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 32 << 20
	}
	if c.MaxBuilds <= 0 {
		c.MaxBuilds = 4
	}
	if c.BuildWait <= 0 {
		c.BuildWait = 10 * time.Second
	}
	if c.MaxEpoch <= 0 {
		c.MaxEpoch = 1 << 20
	}
	if c.DefaultBackend == "" {
		c.DefaultBackend = "bijective"
	}
	c.Events = c.Events.withDefaults()
	return c
}

// Server is the permd HTTP handler. Create one with New and mount it on
// any http.Server; it is safe for concurrent use.
type Server struct {
	cfg        Config
	defBackend randperm.Backend
	met        instruments
	bus        *events.Bus // the live-operations spine (events.go)
	cache      *handleCache
	quota      *quotas       // nil when Config.Quota is disabled
	buildSem   chan struct{} // materialization slots (admission.go)
	bufs       sync.Pool     // *[]int64 of length cfg.MaxChunk
	node       *cluster.Node // non-nil iff cluster mode is on
	mux        *http.ServeMux

	clusterRanges atomic.Int64 // serveClusterRange calls in flight

	// Epoch key-derivation memos for /v1/epochs (workload.go).
	epochersMu sync.Mutex
	epochers   map[epocherKey]*workload.Epocher
}

// New builds a Server from cfg (zero value fine; see Config defaults).
// The only error is an unparseable Config.DefaultBackend.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	def, err := randperm.ParseBackend(cfg.DefaultBackend)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		defBackend: def,
		mux:        http.NewServeMux(),
		epochers:   make(map[epocherKey]*workload.Epocher),
	}
	s.bus = events.NewBus(events.Options{
		Buffer:         cfg.Events.Buffer,
		Replay:         cfg.Events.Replay,
		MaxSubscribers: cfg.Events.MaxSubscribers,
	})
	s.buildSem = make(chan struct{}, cfg.MaxBuilds)
	if cfg.Quota.Enabled() {
		s.quota = newQuotas(cfg.Quota)
	}
	if len(cfg.ClusterPeers) > 0 {
		s.node, err = cluster.New(cluster.Config{
			Self:       cfg.ClusterNode,
			Peers:      cfg.ClusterPeers,
			Procs:      cfg.Procs,
			Replicas:   cfg.ClusterReplicas,
			MaxShards:  cfg.MaxHandles,
			MaxN:       cfg.MaxN,
			HedgeAfter: cfg.ClusterHedge,
			Events:     s.bus,
		})
		if err != nil {
			return nil, err
		}
		s.mux.Handle("/v1/cluster/", s.node.Handler())
	}
	s.declareMetrics()
	s.cache = newHandleCache(cfg.MaxHandles, s.buildHandle, func(key handleKey) {
		s.publishCounted(s.met.cacheEvictions, keyEvent(events.TypeCacheEvict, key))
	})
	s.bufs.New = func() any {
		b := make([]int64, cfg.MaxChunk)
		return &b
	}
	s.route("GET /v1/perm/{seed}/chunk", "chunk", s.handleChunk)
	s.route("GET /v1/perm/{seed}/at", "at", s.handleAt)
	s.route("POST /v1/shuffle", "shuffle", s.handleShuffle)
	s.route("GET /v1/sample", "sample", s.handleSample)
	s.route("GET /v1/assign", "assign", s.handleAssign)
	s.route("GET /v1/epochs", "epochs", s.handleEpochs)
	s.route("GET /v1/events", "events", s.handleEvents)
	s.route("GET /healthz", "healthz", s.handleHealthz)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	return s, nil
}

// route mounts h at pattern, counting its requests under the endpoint
// label of permd_requests_total: the one place each label is named.
func (s *Server) route(pattern, endpoint string, h http.HandlerFunc) {
	requests := s.met.requests.With(endpoint)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		h(w, r)
	})
}

// EventBus exposes the server's event bus: cmd/permd does not need it,
// but in-process consumers (tests, embedded dashboards) subscribe
// directly instead of dialing their own SSE stream.
func (s *Server) EventBus() *events.Bus { return s.bus }

type recordKey struct{}

// recordOf returns the request's record: the request event ServeHTTP
// publishes once the handler returns. A handler reports on it what it
// delivered — items served, the handle-cache outcome, the resolved
// permutation identity. Only the handling goroutine writes it.
func recordOf(r *http.Request) *events.Event {
	return r.Context().Value(recordKey{}).(*events.Event)
}

// ServeHTTP is the middleware seam: every request gets a record, and
// every request except the event stream itself is timed and published
// onto the bus from it as a request event (plus a slow_request event
// past Config.Events.SlowThreshold), its delivered items counted from
// it. A request no route matched is counted as an error here. The cost
// with no subscribers is one mutex acquisition and one ring write per
// request — the non-perturbation benchmark pins it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := events.New(events.TypeRequest)
	r = r.WithContext(context.WithValue(r.Context(), recordKey{}, &rec))
	began := time.Now()
	s.mux.ServeHTTP(w, r)
	elapsed := time.Since(began)
	if r.Pattern == "" {
		s.met.errors.Add(1) // the mux answered 404 or 405 itself
	}
	if r.URL.Path == "/v1/events" {
		// The stream is long-lived; a per-request completion event for
		// it would only ever describe a disconnect.
		return
	}
	s.met.items.Add(rec.Items)
	rec.Endpoint, rec.Ns = r.URL.Path, elapsed.Nanoseconds()
	s.bus.Publish(rec)
	if t := s.cfg.Events.SlowThreshold; t > 0 && elapsed >= t {
		rec.Type, rec.Client = events.TypeSlowRequest, clientKey(r)
		s.bus.Publish(rec)
	}
}

// buildHandle is the cache's single-flight constructor: the one place a
// Permuter is made, so the materialization-counting hook is registered
// before any request can share the handle. In cluster mode a
// backend=cluster handle is this node's cluster.Permuter.
func (s *Server) buildHandle(key handleKey) (handle, error) {
	if key.backend == randperm.BackendCluster && s.node != nil {
		return s.node.Permuter(key.n, key.seed), nil
	}
	pm, err := randperm.NewPermuter(key.n, randperm.Options{
		Procs:   s.cfg.Procs,
		Seed:    key.seed,
		Backend: key.backend,
	})
	if err != nil {
		return nil, err
	}
	pm.OnMaterialize(func() {
		s.publishCounted(s.met.materializations, keyEvent(events.TypeMaterialization, key))
	})
	return pm, nil
}

// httpError answers with a plain-text error and counts it.
func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.met.errors.Add(1)
	http.Error(w, "permd: "+fmt.Sprintf(format, args...), code)
}

// querySeed parses the optional seed query parameter (default 0).
func querySeed(q url.Values) (uint64, error) {
	sv := q.Get("seed")
	if sv == "" {
		return 0, nil
	}
	seed, err := strconv.ParseUint(sv, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad seed %q: want a decimal uint64", sv)
	}
	return seed, nil
}

// queryInt64 parses query parameter name, or returns (def, nil) when absent.
func queryInt64(q url.Values, name string, def int64) (int64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: want a decimal integer", name, v)
	}
	return n, nil
}

// permuterFor resolves the {seed} path value and the n/backend query of
// a /v1/perm/* request into a cached handle entry. It applies the MaxN
// gate to materializing backends and answers the error itself when it
// returns ok == false.
func (s *Server) permuterFor(w http.ResponseWriter, r *http.Request) (e *handleEntry, n int64, backend randperm.Backend, ok bool) {
	seed, err := strconv.ParseUint(r.PathValue("seed"), 10, 64)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad seed %q: want a decimal uint64", r.PathValue("seed"))
		return nil, 0, 0, false
	}
	q := r.URL.Query()
	n, err = queryInt64(q, "n", -1)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return nil, 0, 0, false
	}
	if n < 0 {
		s.httpError(w, http.StatusBadRequest, "missing or negative n: the domain size n is required")
		return nil, 0, 0, false
	}
	backend = s.defBackend
	if bs := q.Get("backend"); bs != "" {
		backend, err = randperm.ParseBackend(bs)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, "%v", err)
			return nil, 0, 0, false
		}
	}
	if backend != randperm.BackendBijective && n > s.cfg.MaxN {
		s.httpError(w, http.StatusBadRequest,
			"n=%d exceeds this server's materialization bound %d for backend %s; use backend=bijective for larger domains",
			n, s.cfg.MaxN, backend)
		return nil, 0, 0, false
	}
	e, ok = s.resolve(w, r, handleKey{n: n, seed: seed, backend: backend})
	return e, n, backend, ok
}

// resolve fetches key's handle from the cache, constructing it on a
// miss, and records the permutation and the cache outcome on the
// request event. It answers the error itself when it returns ok ==
// false.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request, key handleKey) (*handleEntry, bool) {
	e, hit, err := s.cache.get(key)
	outcome, c := "miss", s.met.cacheMisses
	if hit {
		outcome, c = "hit", s.met.cacheHits
	}
	c.Add(1)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "building permutation: %v", err)
		return nil, false
	}
	rec := recordOf(r)
	rec.N, rec.Seed, rec.Backend, rec.Cache = key.n, key.seed, key.backend.String(), outcome
	w.Header().Set("Permd-Backend", key.backend.String())
	return e, true
}

// rangeQuery parses the ?start=&len= of a range request over [0, n):
// start defaults to 0 and len to min(MaxChunk, n-start), and len is
// clamped to the domain end. It answers the error itself when it
// returns ok == false.
func (s *Server) rangeQuery(w http.ResponseWriter, q url.Values, n int64) (start, length int64, ok bool) {
	start, err := queryInt64(q, "start", 0)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return 0, 0, false
	}
	if start < 0 || start > n {
		s.httpError(w, http.StatusBadRequest, "start=%d outside [0, %d]", start, n)
		return 0, 0, false
	}
	length = min(n-start, int64(s.cfg.MaxChunk))
	if lv := q.Get("len"); lv != "" {
		length, err = strconv.ParseInt(lv, 10, 64)
		if err != nil || length < 0 {
			s.httpError(w, http.StatusBadRequest, "bad len=%q: want a non-negative decimal integer", lv)
			return 0, 0, false
		}
		length = min(length, n-start)
	}
	return start, length, true
}

// admitItems charges cost items to the requesting client's quota bucket,
// answering 429 + Retry-After itself (and reporting false) when the
// bucket cannot cover it. Charging happens after request validation so
// malformed requests stay 400s, and before any serving work so a refused
// request costs the daemon nothing.
func (s *Server) admitItems(w http.ResponseWriter, r *http.Request, cost int64) bool {
	if s.quota == nil {
		return true
	}
	ok, retry := s.quota.take(clientKey(r), cost)
	if ok {
		s.met.quotaItems.Add(cost)
		return true
	}
	ev := events.New(events.TypeQuotaRefusal)
	ev.Endpoint, ev.Client, ev.Items = r.URL.Path, clientKey(r), cost
	ev.Ns = retry.Nanoseconds() // how long the bucket needs to refill
	s.publishCounted(s.met.quotaThrottled, ev)
	secs := retryAfter(retry)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.httpError(w, http.StatusTooManyRequests,
		"quota exhausted for client %q: retry after %ds", clientKey(r), secs)
	return false
}

// admitBuild forces the handle through the materialization admission
// gate (see admission.go), mapping refusals onto HTTP: a full build
// queue becomes 503 + Retry-After, a failed build 500, and a client
// that disconnected while queued gets nothing (it is gone). onAdmit is
// ensureMaterialized's admission hook. Reports whether serving may
// proceed.
func (s *Server) admitBuild(w http.ResponseWriter, r *http.Request, e *handleEntry, onAdmit func()) bool {
	err := s.ensureMaterialized(r.Context(), e, onAdmit)
	switch {
	case err == nil:
		return true
	case errors.Is(err, errBuildQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter(s.cfg.BuildWait)))
		s.httpError(w, http.StatusServiceUnavailable, "all %d build slots busy: %v", s.cfg.MaxBuilds, err)
		return false
	case r.Context().Err() != nil:
		// The client disconnected while waiting; count it, write nothing.
		s.met.errors.Add(1)
		return false
	default:
		s.httpError(w, http.StatusInternalServerError, "materializing permutation: %v", err)
		return false
	}
}

// handleChunk serves GET /v1/perm/{seed}/chunk?n=&start=&len=&backend= —
// the values π(start) .. π(start+len-1), one decimal per line. len
// defaults to min(MaxChunk, n-start) and may exceed MaxChunk, in which
// case the response streams through the pooled buffer page by page.
func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	e, n, backend, ok := s.permuterFor(w, r)
	if !ok {
		return
	}
	start, length, ok := s.rangeQuery(w, r.URL.Query(), n)
	if !ok {
		return
	}
	if !s.admitItems(w, r, max(length, 1)) {
		return
	}
	if backend == randperm.BackendCluster && s.node != nil {
		s.serveClusterRange(w, r, e, start, length)
		return
	}
	if !s.admitBuild(w, r, e, nil) {
		return
	}
	s.serveRange(w, r, e.pm, start, length, s.met.chunk)
}

// serveClusterRange serves a backend=cluster range. A cluster read can
// fail at any peer at any span boundary, and the failure-semantics
// contract (OPERATIONS.md) promises no partial bytes, so the range is
// read whole into memory before the first byte goes out: a failed read
// becomes a 500 with no partial body (cluster requests passed the MaxN
// gate, which bounds the buffer). This node's shards are built under
// the admission gate like any materializing handle, and the peer reads
// start the moment that build is admitted — or at once when the shards
// are resident — so the local build overlaps the peers' builds of
// theirs. A request still queued for a build slot holds no buffer and
// has no peer read in flight; one that is refused, fails or loses its
// client cancels its peer reads and waits for them before returning.
// The read range is then formatted on this request's share of the
// cores and written in order (writeLinesOrdered).
func (s *Server) serveClusterRange(w http.ResponseWriter, r *http.Request, e *handleEntry, start, length int64) {
	s.clusterRanges.Add(1)
	defer s.clusterRanges.Add(-1)
	var buf []int64
	var rd *cluster.Read
	startRead := func() {
		if rd == nil {
			buf = make([]int64, length)
			rd = s.node.Permuter(e.key.n, e.key.seed).StartRead(r.Context(), buf, start)
		}
	}
	if !s.admitBuild(w, r, e, startRead) {
		if rd != nil {
			rd.Abandon()
		}
		return
	}
	began := time.Now()
	startRead()
	if _, err := rd.Finish(); err != nil {
		if r.Context().Err() != nil {
			s.met.errors.Add(1) // the client left; nobody reads an answer
			return
		}
		s.httpError(w, http.StatusInternalServerError, "reading chunk: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// The cluster ranges in flight here share the cores: with another
	// one in its rounds or its tail, helpers would only take its turns.
	procs := runtime.GOMAXPROCS(0) / int(s.clusterRanges.Load())
	if writeLinesOrdered(r.Context(), w, buf, e.key.n, procs) != nil {
		return // client went away
	}
	s.countRange(r, length, began, s.met.chunk)
}

// tailPiece is how many values writeLinesOrdered formats per piece,
// written with one Write: ~112 KiB of text for the 6- and 7-digit
// values of a 10^6 domain. On loopback, cold pulls of that domain got
// faster as pieces grew from 4096 values to 16384 and no faster past
// it, since each Write is a syscall the reader wakes for.
const tailPiece = 1 << 14

// tailWorkers caps the goroutines writeLinesOrdered formats on, the
// calling one included. The caller makes every write, and a piece's
// write costs about what formatting it does, so past a few formatters
// the writes bound the tail: four take three quarters of what any
// number could save.
const tailWorkers = 4

// writeLinesOrdered writes vals, each in [0, n), to w one decimal per
// line — the bytes a decimalWriter writes — formatting them on W
// goroutines: procs of them, at most tailWorkers and at least one.
// vals is cut into pieces of tailPiece values, dealt round-robin: the
// calling goroutine formats and writes every W-th piece itself, and
// each of W-1 helpers formats its pieces into two page buffers it
// reuses, one being written while it fills the other. The caller writes the pieces in order, and a helper waits for
// a written page before it formats its next piece, so extra memory is
// 2W-1 pages, each sized to a piece of n's lines, whatever len(vals).
// A write error or a canceled ctx stops the formatting, and no helper
// outlives the call.
func writeLinesOrdered(ctx context.Context, w io.Writer, vals []int64, n int64, procs int) error {
	pieces := (len(vals) + tailPiece - 1) / tailPiece
	workers := max(min(procs, tailWorkers, pieces), 1)
	// appendLines takes a whole piece of lines of at most line bytes
	// into a page with this much room for it and the pair stores.
	line := len(strconv.FormatInt(max(n-1, 0), 10)) + 1
	pageCap := min(tailPiece, len(vals))*line + 2*maxDecimalLine
	format := func(page []byte, k int) []byte {
		p := vals[k*tailPiece : min((k+1)*tailPiece, len(vals))]
		page, m := appendLines(page[:0], p)
		if m < len(p) { // a value outside [0, n) has a longer line
			page, _ = appendLines(slices.Grow(page, (len(p)-m+2)*maxDecimalLine), p[m:])
		}
		return page
	}

	type helper struct{ done, free chan []byte }
	helpers := make([]helper, workers) // helpers[0], no channels, is the caller
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for j := 1; j < workers; j++ {
		// A helper owns two pages, so two slots let every send go
		// through without waiting on the other side.
		h := helper{done: make(chan []byte, 2), free: make(chan []byte, 2)}
		h.free <- make([]byte, 0, pageCap)
		h.free <- make([]byte, 0, pageCap)
		helpers[j] = h
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := j; k < pieces; k += workers {
				var page []byte
				select {
				case page = <-h.free:
				case <-stop:
					return
				}
				h.done <- format(page, k)
			}
		}()
	}
	own := make([]byte, 0, pageCap)
	for k := range pieces {
		if err := ctx.Err(); err != nil {
			return err
		}
		h := helpers[k%workers]
		var page []byte
		if h.done == nil {
			own = format(own, k)
			page = own
		} else {
			page = <-h.done
		}
		if _, err := w.Write(page); err != nil {
			return err
		}
		if h.free != nil {
			h.free <- page
		}
	}
	return nil
}

// serveRange writes π(start) .. π(start+length-1) one decimal per line
// and records the values served and the wall time on stats (and on the
// request record), reporting whether the whole range was delivered. It
// reads through the pooled MaxChunk buffer, so a huge range holds
// O(MaxChunk) memory. Error responses — a 500 before the first byte,
// truncation after — are handled here.
func (s *Server) serveRange(w http.ResponseWriter, r *http.Request, pm handle, start, length int64, stats rangeStats) bool {
	began := time.Now()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	bufp := s.bufs.Get().(*[]int64)
	defer s.bufs.Put(bufp)
	buf := *bufp
	dw := newDecimalWriter(w, make([]byte, 0, 1<<15))
	served := int64(0)
	for served < length {
		if served > 0 && r.Context().Err() != nil {
			// Client gone mid-stream: stop paging instead of formatting
			// values nobody will read.
			s.met.errors.Add(1)
			return false
		}
		page := buf[:min(length-served, int64(len(buf)))]
		m, err := pm.Chunk(page, start+served)
		if err != nil {
			if served == 0 {
				// Nothing flushed yet: a real error response is still
				// possible.
				s.httpError(w, http.StatusInternalServerError, "reading chunk: %v", err)
				return false
			}
			// Mid-stream the headers are gone; all we can do is
			// truncate the stream.
			s.met.errors.Add(1)
			return false
		}
		if dw.write(page[:m]) != nil {
			return false // client went away
		}
		served += int64(m)
	}
	if dw.flush() != nil {
		return false
	}
	s.countRange(r, served, began, stats)
	return true
}

// countRange records a delivered range of served values, read and
// written since began, on the request record and on stats.
func (s *Server) countRange(r *http.Request, served int64, began time.Time, stats rangeStats) {
	recordOf(r).Items = served
	stats.items.Add(served)
	stats.ns.Add(time.Since(began).Nanoseconds())
}

// maxDecimalLine is the room decimalWriter keeps free for one line: a
// line is at most the 20 characters of math.MinInt64 plus the newline,
// and the 8-byte digit stores below may write up to 24 bytes past the
// line's start before it is cut to length.
const maxDecimalLine = 24

// decimalWriter formats int64s one decimal per line straight into a
// byte page and writes each full page to w — one copy of every byte,
// no second buffer in between. The page's capacity is the write size;
// it must hold at least maxDecimalLine bytes.
type decimalWriter struct {
	w    io.Writer
	page []byte
}

func newDecimalWriter(w io.Writer, page []byte) *decimalWriter {
	return &decimalWriter{w: w, page: page[:0]}
}

// write formats vals, writing out every page that fills, and stops at
// the first write error (the client went away).
func (d *decimalWriter) write(vals []int64) error {
	for {
		var m int
		d.page, m = appendLines(d.page, vals)
		if vals = vals[m:]; len(vals) == 0 {
			return nil
		}
		if _, err := d.w.Write(d.page); err != nil {
			return err
		}
		d.page = d.page[:0]
	}
}

// appendLines appends the decimal lines of a prefix of vals to page,
// each while maxDecimalLine bytes of capacity are free for its stores,
// and returns the page and how many values it took. A page with capacity for maxDecimalLine bytes per value takes
// them all. Values go two at a time: both lines are formatted before
// either is stored, so the digit arithmetic of the two overlaps and
// only the store offset chains from one line to the next. A pair with
// a value outside [0, 1e16), an odd tail and a page too full for two
// lines go through appendDecimalLine.
func appendLines(page []byte, vals []int64) ([]byte, int) {
	i := 0
	for room := cap(page) - 2*maxDecimalLine; i+1 < len(vals) && len(page) <= room; i += 2 {
		a, b := uint64(vals[i]), uint64(vals[i+1])
		if a >= 1e16 || b >= 1e16 { // negatives included
			page = appendDecimalLine(appendDecimalLine(page, vals[i]), vals[i+1])
			continue
		}
		leadA, tailA, nA := decimalGroups(a)
		leadB, tailB, nB := decimalGroups(b)
		headA, kA := leadDigits(digits8(leadA))
		headB, kB := leadDigits(digits8(leadB))
		nA += kA
		nB += kB
		l := len(page)
		d := page[l : l+2*maxDecimalLine]
		storeLine(d, headA, tailA, kA, nA)
		storeLine(d[nA:], headB, tailB, kB, nB)
		page = page[:l+nA+nB]
	}
	for room := cap(page) - maxDecimalLine; i < len(vals) && len(page) <= room; i++ {
		page = appendDecimalLine(page, vals[i])
	}
	return page, i
}

// appendDecimalLine appends v in decimal and a newline to b, which must
// have room for maxDecimalLine more bytes: the bytes of
// strconv.AppendInt(b, v, 10) plus '\n'. A v of 17 to 19 digits has
// its last 8 digits split off and stored after the line of the rest.
// Negative values (never served) go through strconv.
func appendDecimalLine(b []byte, v int64) []byte {
	if v < 0 {
		return append(strconv.AppendInt(b, v, 10), '\n')
	}
	u, three := uint64(v), v >= 1e16
	var low uint64
	if three {
		u, low = u/1e8, digits8(u%1e8)
	}
	lead, tail, n := decimalGroups(u)
	head, k := leadDigits(digits8(lead))
	n += k
	l := len(b)
	d := b[l : l+maxDecimalLine]
	storeLine(d, head, tail, k, n)
	if three {
		binary.LittleEndian.PutUint64(d[n-1:], low|asciiZeros)
		d[n+7] = '\n'
		n += 8
	}
	return b[:l+n]
}

// decimalGroups splits u < 1e16 into the digit groups of its line:
// lead, the leading group of 1 to 8 digits, and tail, the digits8
// lanes of the 8 digits after it — zero when u < 1e8, where there are
// none. n counts the line's bytes after the leading group: the newline,
// and those 8 digits if there are any.
func decimalGroups(u uint64) (lead, tail uint64, n int) {
	if u < 1e8 {
		return u, 0, 1
	}
	return u / 1e8, digits8(u % 1e8), 9
}

// leadDigits shifts the digits8 lanes g of a leading group down past
// its leading zeros, returning the shifted lanes and how many digits
// are left. Leading zero digits are the low zero bytes; the sentinel
// bit in the top lane (above any digit) keeps the last digit of 0, and
// z, their width in bits, is a multiple of 8 below 64.
func leadDigits(g uint64) (head uint64, k int) {
	z := bits.TrailingZeros64(g|1<<63) & 56
	return g >> z, 8 - z/8
}

// storeLine stores an n-byte line at the start of d, which must hold
// maxDecimalLine bytes: the k leading digits in head's low lanes, the
// digits in tail's lanes if the line has more, and the newline. Both
// 8-byte stores and the newline are made whatever the line's length;
// the newline, or the next line, overwrites what runs past a group.
func storeLine(d []byte, head, tail uint64, k, n int) {
	binary.LittleEndian.PutUint64(d, head|asciiZeros)
	binary.LittleEndian.PutUint64(d[k:], tail|asciiZeros)
	d[n-1] = '\n'
}

// asciiZeros is '0' in every byte lane: OR-ed onto digits8's lanes it
// turns digit values into their characters.
const asciiZeros = 0x3030303030303030

// digits8 returns the eight decimal digits of x < 1e8 (leading zeros
// included) as the byte lanes of a uint64, most significant digit in
// the lowest byte, so a little-endian store writes them in reading
// order. Each step divides every lane at once by a multiply-shift that
// is exact for the lane's range: 4+4 digits by 10^4 as a scalar, then
// 2+2 per half by 100 (x*5243>>19 == x/100 for x < 43699), then 1+1
// per quarter by 10 (x*103>>10 == x/10 for x < 179). No lane's product
// reaches the next lane, and the masks drop what the shifts pull down
// from it. digits8 and decimalGroups stay within the compiler's
// inlining budget (go build -gcflags=-m lists both as inlinable): a
// call per group costs the pair loop much of its gain.
func digits8(x uint64) uint64 {
	h := x / 1e4
	v := h | (x-h*1e4)<<32
	q := v * 5243 >> 19 & 0x0000007f0000007f
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0x000f000f000f000f
	return q | (v-q*10)<<8
}

// flush writes out the partial page.
func (d *decimalWriter) flush() error {
	if len(d.page) == 0 {
		return nil
	}
	_, err := d.w.Write(d.page)
	d.page = d.page[:0]
	return err
}

// handleAt serves GET /v1/perm/{seed}/at?n=&i=&backend= — the single
// value π(i). The read goes through a length-1 Chunk, whose cost is
// backend-shaped:
//
//   - bijective (the default): O(1) per query — the length-1 chunk is
//     one Feistel evaluation, no state, nothing materialized;
//   - sim/shmem/inplace: the first query pays (and the permuter caches)
//     the one-time n-item build, after which every query is an array
//     read. This cannot be O(1) cold: these are exactly-uniform
//     materializing algorithms, where π(i) depends on the entire
//     communication-matrix sample and every local shuffle — there is no
//     closed form for a single position;
//   - cluster: as above, but the build is the owning node's shard
//     (~n/nodes items), constructed remotely on first touch and held in
//     that node's shard LRU, so repeated point queries against a live
//     permutation are one cached lookup plus a small HTTP round trip.
//
// Callers that need strictly O(1) point queries must ask for the
// bijective backend; that trade (computed keyed family vs. exact
// uniformity) is the backend choice itself, not something the service
// layer can paper over.
func (s *Server) handleAt(w http.ResponseWriter, r *http.Request) {
	e, n, _, ok := s.permuterFor(w, r)
	if !ok {
		return
	}
	i, err := queryInt64(r.URL.Query(), "i", -1)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if i < 0 || i >= n {
		s.httpError(w, http.StatusBadRequest, "i=%d outside [0, %d)", i, n)
		return
	}
	if !s.admitItems(w, r, 1) {
		return
	}
	if !s.admitBuild(w, r, e, nil) {
		return
	}
	// Read through Chunk rather than At: same bytes, but an
	// error-returning path, so a cluster peer failure becomes a 500
	// instead of a panic.
	var one [1]int64
	if _, err := e.pm.Chunk(one[:], i); err != nil {
		s.httpError(w, http.StatusInternalServerError, "reading position: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var line [maxDecimalLine]byte
	if dw := newDecimalWriter(w, line[:]); dw.write(one[:]) != nil || dw.flush() != nil {
		return // client went away
	}
	recordOf(r).Items = 1
}

// handleShuffle serves POST /v1/shuffle?seed=&backend=: the request body
// — newline-separated values, or a JSON array with Content-Type
// application/json — comes back in exactly-uniform random order. This is
// the exactness-sensitive endpoint: a backend whose ExactUniform() is
// false is refused with 400 rather than silently served from the
// bijective keyed family.
func (s *Server) handleShuffle(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seed, err := querySeed(q)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	backend := randperm.BackendSharedMem
	if bs := q.Get("backend"); bs != "" {
		backend, err = randperm.ParseBackend(bs)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if !backend.ExactUniform() {
		s.httpError(w, http.StatusBadRequest,
			"backend %s is not exactly uniform over S_n and is refused on /v1/shuffle; use sim, shmem or inplace (or stream the keyed family from /v1/perm)", backend)
		return
	}

	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	mediaType, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	asJSON := mediaType == "application/json"
	var items []string
	var raw []json.RawMessage
	if asJSON {
		if err := json.NewDecoder(body).Decode(&raw); err != nil {
			if maxed := (*http.MaxBytesError)(nil); errors.As(err, &maxed) {
				s.httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds this server's bound %d bytes", s.cfg.MaxBody)
				return
			}
			s.httpError(w, http.StatusBadRequest, "decoding JSON array: %v", err)
			return
		}
	} else {
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			items = append(items, sc.Text())
		}
		if err := sc.Err(); err != nil {
			if maxed := (*http.MaxBytesError)(nil); errors.As(err, &maxed) {
				s.httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds this server's bound %d bytes", s.cfg.MaxBody)
				return
			}
			s.httpError(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
	}
	count := len(items)
	if asJSON {
		count = len(raw)
	}
	if int64(count) > s.cfg.MaxN {
		s.httpError(w, http.StatusRequestEntityTooLarge, "%d items exceeds this server's bound %d", count, s.cfg.MaxN)
		return
	}
	if !s.admitItems(w, r, max(int64(count), 1)) {
		return
	}
	opt := randperm.Options{Procs: min(s.cfg.Procs, max(count, 1)), Seed: seed, Backend: backend}

	if asJSON {
		out, _, err := randperm.ParallelShuffle(raw, opt)
		if err != nil {
			s.httpError(w, http.StatusInternalServerError, "shuffling: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(out); err != nil {
			return
		}
		recordOf(r).Items = int64(len(out))
		return
	}
	out, _, err := randperm.ParallelShuffle(items, opt)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "shuffling: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	bw := bufio.NewWriterSize(w, 1<<15)
	for _, l := range out {
		bw.WriteString(l)
		bw.WriteByte('\n')
	}
	// A failed write sticks in bw, so Flush reports any of them.
	if bw.Flush() != nil {
		return // client went away
	}
	recordOf(r).Items = int64(len(out))
}

// handleSample serves GET /v1/sample?n=&k=&seed= — a uniformly random
// k-subset of [0, n) in uniformly random order, one value per line,
// drawn by ParallelSample on the simulated machine (always exactly
// uniform; there is no backend parameter to gate).
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n, err := queryInt64(q, "n", -1)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if n < 0 {
		s.httpError(w, http.StatusBadRequest, "missing or negative n: the domain size n is required")
		return
	}
	if n > s.cfg.MaxN {
		s.httpError(w, http.StatusBadRequest, "n=%d exceeds this server's bound %d", n, s.cfg.MaxN)
		return
	}
	k, err := queryInt64(q, "k", -1)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if k < 0 || k > n {
		s.httpError(w, http.StatusBadRequest, "k=%d outside [0, n=%d]", k, n)
		return
	}
	seed, err := querySeed(q)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !s.admitItems(w, r, max(k, 1)) {
		return
	}
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	sample, _, err := randperm.ParallelSample(data, k, randperm.Options{Procs: s.cfg.Procs, Seed: seed})
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "sampling: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if dw := newDecimalWriter(w, make([]byte, 0, 1<<15)); dw.write(sample) != nil || dw.flush() != nil {
		return // client went away
	}
	recordOf(r).Items = int64(len(sample))
}

// handleHealthz serves a JSON liveness probe that doubles as a config
// echo, so an operator (or a replica checking compatibility) can read
// the pinned decomposition width the determinism contract depends on.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	body := map[string]any{
		"status":          "ok",
		"procs":           s.cfg.Procs,
		"handles":         s.cache.len(),
		"max_handles":     s.cfg.MaxHandles,
		"max_n":           s.cfg.MaxN,
		"max_chunk":       s.cfg.MaxChunk,
		"default_backend": s.defBackend.String(),
		"backends":        []string{"sim", "shmem", "inplace", "bijective", "cluster"},
		"max_builds":      s.cfg.MaxBuilds,
		"max_epoch":       s.cfg.MaxEpoch,
		"quota":           s.quota != nil,
		"workloads":       []string{"assign", "epochs"},
		"events": map[string]any{
			"subscribers":     s.bus.Subscribers(),
			"max_subscribers": s.cfg.Events.MaxSubscribers,
			"published":       s.bus.Published(),
			"dropped":         s.bus.Dropped(),
		},
	}
	if s.node != nil {
		body["cluster"] = map[string]any{
			"node":     s.node.Self(),
			"nodes":    s.node.Nodes(),
			"procs":    s.node.Procs(),
			"replicas": s.node.Replicas(),
			"geometry": s.node.Geometry().Hash(),
		}
	}
	json.NewEncoder(w).Encode(body)
}

// JoinCluster runs the deterministic membership handshake against every
// peer, polling unreachable ones until ctx expires. It is a no-op (nil)
// outside cluster mode. A geometry mismatch is fatal by design — the
// returned error wraps cluster.ErrGeometryMismatch and the daemon
// should refuse to serve; see cmd/permd.
func (s *Server) JoinCluster(ctx context.Context) error {
	if s.node == nil {
		return nil
	}
	return s.node.JoinAll(ctx)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.Write(w)
	if s.node != nil {
		s.node.Metrics().Write(w)
	}
}
