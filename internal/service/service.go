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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"sync"
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
	met        metrics
	bus        *events.Bus // the live-operations spine (events.go)
	cache      *handleCache
	quota      *quotas       // nil when Config.Quota is disabled
	buildSem   chan struct{} // materialization slots (admission.go)
	bufs       sync.Pool     // *[]int64 of length cfg.MaxChunk
	node       *cluster.Node // non-nil iff cluster mode is on
	mux        *http.ServeMux

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
	s.cache = newHandleCache(cfg.MaxHandles, &s.met, s.buildHandle)
	s.cache.onEvict = func(key handleKey) {
		ev := events.New(events.TypeCacheEvict)
		ev.N, ev.Seed, ev.Backend = key.n, key.seed, key.backend.String()
		s.bus.Publish(ev)
	}
	s.bufs.New = func() any {
		b := make([]int64, cfg.MaxChunk)
		return &b
	}
	s.mux.HandleFunc("GET /v1/perm/{seed}/chunk", s.handleChunk)
	s.mux.HandleFunc("GET /v1/perm/{seed}/at", s.handleAt)
	s.mux.HandleFunc("POST /v1/shuffle", s.handleShuffle)
	s.mux.HandleFunc("GET /v1/sample", s.handleSample)
	s.mux.HandleFunc("GET /v1/assign", s.handleAssign)
	s.mux.HandleFunc("GET /v1/epochs", s.handleEpochs)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// EventBus exposes the server's event bus: cmd/permd does not need it,
// but in-process consumers (tests, embedded dashboards) subscribe
// directly instead of dialing their own SSE stream.
func (s *Server) EventBus() *events.Bus { return s.bus }

// reqInfo rides each request's context so handlers can report what the
// request-level event (events.go) should carry — items served, the
// handle-cache outcome, the resolved permutation identity. Plain fields:
// only the handling goroutine writes them, and the middleware reads them
// after the handler returns.
type reqInfo struct {
	items   int64
	cache   string // "hit" / "miss" when a handle was resolved
	backend string
	n       int64
	seed    uint64
}

type reqInfoKey struct{}

// reqInfoOf returns the request's reqInfo, or nil for requests that
// bypassed the middleware (direct mux use in tests, /v1/events).
func reqInfoOf(r *http.Request) *reqInfo {
	ri, _ := r.Context().Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// ServeHTTP is the middleware seam: every request except the event
// stream itself gets timed and reported onto the bus as a request event
// (plus a slow_request event past Config.Events.SlowThreshold). The
// cost with no subscribers is one mutex acquisition and one ring write
// per request — the non-perturbation benchmark pins it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/events" {
		// The stream is long-lived; a per-request completion event for
		// it would only ever describe a disconnect.
		s.mux.ServeHTTP(w, r)
		return
	}
	ri := &reqInfo{}
	r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri))
	began := time.Now()
	s.mux.ServeHTTP(w, r)
	elapsed := time.Since(began)

	ev := events.New(events.TypeRequest)
	ev.Endpoint = r.URL.Path
	ev.Ns = elapsed.Nanoseconds()
	ev.Items = ri.items
	ev.Cache = ri.cache
	ev.Backend = ri.backend
	ev.N = ri.n
	ev.Seed = ri.seed
	s.bus.Publish(ev)
	if t := s.cfg.Events.SlowThreshold; t > 0 && elapsed >= t {
		slow := ev
		slow.Type = events.TypeSlowRequest
		slow.Client = clientKey(r)
		s.bus.Publish(slow)
	}
}

// buildHandle is the cache's single-flight constructor: the one place a
// Permuter is made, so the materialization-counting hook is registered
// before any request can share the handle. In cluster mode a
// backend=cluster handle is source-backed: it reads this node's shard
// locally and routes the rest of the domain to the owning peers,
// instead of materializing all n words here.
func (s *Server) buildHandle(key handleKey) (*randperm.Permuter, error) {
	opt := randperm.Options{
		Procs:   s.cfg.Procs,
		Seed:    key.seed,
		Backend: key.backend,
	}
	if key.backend == randperm.BackendCluster && s.node != nil {
		return randperm.NewPermuterSource(s.node.Permuter(key.n, key.seed), opt)
	}
	pm, err := randperm.NewPermuter(key.n, opt)
	if err != nil {
		return nil, err
	}
	pm.OnMaterialize(func() {
		s.met.materializations.Add(1)
		ev := events.New(events.TypeMaterialization)
		ev.N, ev.Seed, ev.Backend = key.n, key.seed, key.backend.String()
		s.bus.Publish(ev)
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
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "building permutation: %v", err)
		return nil, false
	}
	if ri := reqInfoOf(r); ri != nil {
		ri.n, ri.seed, ri.backend = key.n, key.seed, key.backend.String()
		ri.cache = "miss"
		if hit {
			ri.cache = "hit"
		}
	}
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
	s.met.quotaThrottled.Add(1)
	secs := int64((retry + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	ev := events.New(events.TypeQuotaRefusal)
	ev.Endpoint, ev.Client, ev.Items = r.URL.Path, clientKey(r), cost
	ev.Ns = retry.Nanoseconds() // how long the bucket needs to refill
	s.bus.Publish(ev)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	s.httpError(w, http.StatusTooManyRequests,
		"quota exhausted for client %q: retry after %ds", clientKey(r), secs)
	return false
}

// admitBuild forces the handle through the materialization admission
// gate (see admission.go), mapping refusals onto HTTP: a full build
// queue becomes 503 + Retry-After, a failed build 500, and a client
// that disconnected while queued gets nothing (it is gone). Reports
// whether serving may proceed.
func (s *Server) admitBuild(w http.ResponseWriter, r *http.Request, e *handleEntry) bool {
	err := s.ensureMaterialized(r.Context(), e)
	switch {
	case err == nil:
		return true
	case errors.Is(err, errBuildQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(buildWaitRetry(s.cfg.BuildWait)))
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
	s.met.requests[epChunk].Add(1)
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
	if !s.admitBuild(w, r, e) {
		return
	}
	// A cluster read can fail at any peer at any span boundary, and the
	// failure-semantics contract (OPERATIONS.md) promises no partial
	// bytes, so a sharded range is served atomically.
	atomic := backend == randperm.BackendCluster && s.node != nil
	s.serveRange(w, r, e.pm, start, length, atomic, &s.met.chunk)
}

// serveRange writes π(start) .. π(start+length-1) one decimal per line
// and records the values served and the wall time on stats (and on the
// request event). A paged range reads through the pooled MaxChunk
// buffer, so a huge range holds O(MaxChunk) memory. An atomic range is
// read whole into memory before the first byte goes out, so a failed
// read becomes a 500 with no partial body; callers bound its length
// (cluster requests passed the MaxN gate). Error responses — a 500
// before the first byte, truncation after — are handled here.
func (s *Server) serveRange(w http.ResponseWriter, r *http.Request, pm *randperm.Permuter, start, length int64, atomic bool, stats *rangeStats) {
	began := time.Now()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var buf []int64
	if atomic {
		buf = make([]int64, length)
	} else {
		bufp := s.bufs.Get().(*[]int64)
		defer s.bufs.Put(bufp)
		buf = *bufp
	}
	dw := newDecimalWriter(w, make([]byte, 0, 1<<15))
	served := int64(0)
	for served < length {
		if served > 0 && r.Context().Err() != nil {
			// Client gone mid-stream: stop paging instead of formatting
			// values nobody will read.
			s.met.errors.Add(1)
			return
		}
		page := buf[:min(length-served, int64(len(buf)))]
		m, err := pm.Chunk(page, start+served)
		if err != nil {
			if served == 0 {
				// Nothing flushed yet: a real error response is still
				// possible — a cluster peer failure surfaces here.
				s.httpError(w, http.StatusInternalServerError, "reading chunk: %v", err)
				return
			}
			// Mid-stream the headers are gone; all we can do is
			// truncate the stream.
			s.met.errors.Add(1)
			return
		}
		if dw.write(page[:m]) != nil {
			return // client went away
		}
		served += int64(m)
	}
	if dw.flush() != nil {
		return
	}
	s.met.items.Add(served)
	stats.items.Add(served)
	stats.ns.Add(time.Since(began).Nanoseconds())
	if ri := reqInfoOf(r); ri != nil {
		ri.items = served
	}
}

// maxDecimalLine is the longest line decimalWriter formats: the 20
// characters of math.MinInt64 plus the newline.
const maxDecimalLine = 21

// decimalWriter formats int64s one decimal per line straight into a
// byte page and writes each full page to w — one copy of every byte,
// no second buffer in between. The page's capacity is the write size;
// it must hold at least one line.
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
	page, room := d.page, cap(d.page)-maxDecimalLine
	for _, v := range vals {
		if len(page) > room {
			if _, err := d.w.Write(page); err != nil {
				return err
			}
			page = page[:0]
		}
		page = appendDecimalLine(page, v)
	}
	d.page = page
	return nil
}

// appendDecimalLine appends v in decimal and a newline to b, which must
// have room for maxDecimalLine more bytes: the bytes of
// strconv.AppendInt(b, v, 10) plus '\n', formatted in place two digits
// at a time instead of through strconv's scratch buffer.
func appendDecimalLine(b []byte, v int64) []byte {
	if v < 0 {
		return append(strconv.AppendInt(b, v, 10), '\n')
	}
	u := uint64(v)
	// The digit count: log10 estimated from the bit length, corrected
	// by one comparison (u|1 keeps 0 at one digit).
	k := bits.Len64(u|1) * 1233 >> 12
	if u|1 >= pow10[k] {
		k++
	}
	l := len(b)
	b = b[:l+k+1]
	d := b[l:]
	d[k] = '\n'
	for u >= 100 {
		q := u / 100
		r := 2 * (u - 100*q)
		k -= 2
		d[k], d[k+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		d[0], d[1] = digitPairs[2*u], digitPairs[2*u+1]
	} else {
		d[0] = byte('0' + u)
	}
	return b
}

// digitPairs holds "00" through "99"; pow10[k] is 10^k.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

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
	s.met.requests[epAt].Add(1)
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
	if !s.admitBuild(w, r, e) {
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
	s.met.items.Add(1)
	if ri := reqInfoOf(r); ri != nil {
		ri.items = 1
	}
}

// handleShuffle serves POST /v1/shuffle?seed=&backend=: the request body
// — newline-separated values, or a JSON array with Content-Type
// application/json — comes back in exactly-uniform random order. This is
// the exactness-sensitive endpoint: a backend whose ExactUniform() is
// false is refused with 400 rather than silently served from the
// bijective keyed family.
func (s *Server) handleShuffle(w http.ResponseWriter, r *http.Request) {
	s.met.requests[epShuffle].Add(1)
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
		s.met.items.Add(int64(len(out)))
		if ri := reqInfoOf(r); ri != nil {
			ri.items = int64(len(out))
		}
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
	bw.Flush()
	s.met.items.Add(int64(len(out)))
	if ri := reqInfoOf(r); ri != nil {
		ri.items = int64(len(out))
	}
}

// handleSample serves GET /v1/sample?n=&k=&seed= — a uniformly random
// k-subset of [0, n) in uniformly random order, one value per line,
// drawn by ParallelSample on the simulated machine (always exactly
// uniform; there is no backend parameter to gate).
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	s.met.requests[epSample].Add(1)
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
	s.met.items.Add(int64(len(sample)))
	if ri := reqInfoOf(r); ri != nil {
		ri.items = int64(len(sample))
	}
}

// handleHealthz serves a JSON liveness probe that doubles as a config
// echo, so an operator (or a replica checking compatibility) can read
// the pinned decomposition width the determinism contract depends on.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.requests[epHealthz].Add(1)
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
	s.met.requests[epMetrics].Add(1)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w)
	fmt.Fprintf(w, "# HELP permd_events_published_total Events published onto the internal bus.\n")
	fmt.Fprintf(w, "# TYPE permd_events_published_total counter\n")
	fmt.Fprintf(w, "permd_events_published_total %d\n", s.bus.Published())
	fmt.Fprintf(w, "# HELP permd_events_dropped_total Event deliveries dropped because a subscriber's buffer was full.\n")
	fmt.Fprintf(w, "# TYPE permd_events_dropped_total counter\n")
	fmt.Fprintf(w, "permd_events_dropped_total %d\n", s.bus.Dropped())
	fmt.Fprintf(w, "# HELP permd_events_subscribers Live /v1/events subscriptions.\n")
	fmt.Fprintf(w, "# TYPE permd_events_subscribers gauge\n")
	fmt.Fprintf(w, "permd_events_subscribers %d\n", s.bus.Subscribers())
	if s.quota != nil {
		fmt.Fprintf(w, "# HELP permd_quota_clients Client quota buckets currently tracked.\n")
		fmt.Fprintf(w, "# TYPE permd_quota_clients gauge\n")
		fmt.Fprintf(w, "permd_quota_clients %d\n", s.quota.len())
	}
	if s.node != nil {
		s.node.WriteMetrics(w)
	}
}
