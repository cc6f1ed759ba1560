package service

import (
	"randperm/internal/events"
	"randperm/internal/metrics"
)

// instruments are the handles of the daemon's metric families, each
// declared once in declareMetrics. Every figure is a monotone counter
// or a gauge, cheap to record on the hot path (one atomic add); every
// rate an operator wants — req/s, ns/item, cache hit rate — is a
// quotient computed at scrape time.
type instruments struct {
	reg metrics.Registry

	// requests counts completed requests per endpoint; Server.route
	// names each endpoint's label.
	requests metrics.LabeledCounter
	// errors counts 4xx/5xx answers, unrouted requests included, and
	// requests abandoned by the client or truncated mid-stream.
	errors *metrics.Value
	// items counts the values every endpoint delivered: the one figure
	// each handler reports on its request record. chunk and epochs
	// split out the two range endpoints' share with the wall time spent
	// serving it; chunk.ns/chunk.items is the served ns/item figure
	// BENCHMARKS.md tracks.
	items         *metrics.Value
	chunk, epochs rangeStats

	cacheHits, cacheMisses, cacheEvictions *metrics.Value
	materializations                       *metrics.Value
	assignLookups, epochRecycled           *metrics.Value
	quotaThrottled, quotaItems             *metrics.Value

	admissionBuilds, admissionQueued, admissionTimeouts *metrics.Value
	admissionCancels, admissionInflight                 *metrics.Value
}

// rangeStats is one range endpoint's delivered values and the wall
// nanoseconds spent serving them, recorded by Server.countRange.
type rangeStats struct {
	items, ns *metrics.Value
}

// declareMetrics declares every family of the /metrics page, in the
// order it prints.
func (s *Server) declareMetrics() {
	m, r := &s.met, &s.met.reg
	m.requests = r.LabeledCounter("permd_requests_total", "Completed requests per endpoint.", "endpoint")
	m.errors = r.Counter("permd_request_errors_total", "Requests answered with a 4xx/5xx status.")
	m.items = r.Counter("permd_items_total", "Permutation values served across all endpoints.")
	m.chunk.items = r.Counter("permd_chunk_items_total", "Permutation values served by the chunk endpoint.")
	m.chunk.ns = r.Counter("permd_chunk_ns_total", "Wall nanoseconds spent serving chunk requests.")
	m.cacheHits = r.Counter("permd_handle_cache_hits_total", "Chunk/at requests served from a cached Permuter handle.")
	m.cacheMisses = r.Counter("permd_handle_cache_misses_total", "Permuter handles constructed on demand.")
	m.cacheEvictions = r.Counter("permd_handle_cache_evictions_total", "Handles dropped by the LRU past capacity.")
	m.materializations = r.Counter("permd_materializations_total", "Lazy full-permutation builds actually run.")
	m.assignLookups = r.Counter("permd_assign_lookups_total", "Experiment bucket assignments served by /v1/assign.")
	m.epochs.items = r.Counter("permd_epoch_items_total", "Permutation values served by the epochs endpoint.")
	m.epochs.ns = r.Counter("permd_epoch_ns_total", "Wall nanoseconds spent serving epoch chunk requests.")
	m.epochRecycled = r.Counter("permd_epoch_recycled_total", "Epoch requests served in recycled-sequence mode.")
	m.quotaThrottled = r.Counter("permd_quota_throttled_total", "Requests refused with 429 by the per-client quota.")
	m.quotaItems = r.Counter("permd_quota_items_charged_total", "Items debited from client quota buckets.")
	m.admissionBuilds = r.Counter("permd_admission_builds_total", "Materializing builds admitted through the build gate.")
	m.admissionQueued = r.Counter("permd_admission_queue_waits_total", "Build requests that queued for a busy build slot.")
	m.admissionTimeouts = r.Counter("permd_admission_queue_timeouts_total", "Build requests refused (503) at the queue deadline.")
	m.admissionCancels = r.Counter("permd_admission_cancels_total", "Builds canceled because every waiting client disconnected.")
	m.admissionInflight = r.Gauge("permd_admission_builds_inflight", "Materializing builds running right now.")
	// The two derived figures operators actually watch, precomputed so
	// a bare curl needs no PromQL.
	r.RatioFunc("permd_handle_cache_hit_rate", "Hits / (hits + misses) since start.", func() float64 {
		hits := m.cacheHits.Load()
		return ratio(hits, hits+m.cacheMisses.Load())
	})
	r.RatioFunc("permd_chunk_ns_per_item", "Served chunk nanoseconds per value since start.", func() float64 {
		return ratio(m.chunk.ns.Load(), m.chunk.items.Load())
	})
	r.Func("permd_events_published_total", "Events published onto the internal bus.", "counter", s.bus.Published)
	r.Func("permd_events_dropped_total", "Event deliveries dropped because a subscriber's buffer was full.", "counter", s.bus.Dropped)
	r.Func("permd_events_subscribers", "Live /v1/events subscriptions.", "gauge", func() int64 { return int64(s.bus.Subscribers()) })
	if s.quota != nil {
		r.Func("permd_quota_clients", "Client quota buckets currently tracked.", "gauge", func() int64 { return int64(s.quota.len()) })
	}
}

// ratio is num/den, or 0 before anything was counted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// publishCounted is the one call for a fact that is both counted and
// published: it bumps c (nil for a fact with no counter) and offers ev
// to the best-effort event bus.
func (s *Server) publishCounted(c *metrics.Value, ev events.Event) {
	if c != nil {
		c.Add(1)
	}
	s.bus.Publish(ev)
}

// keyEvent is an event of type t about the permutation key.
func keyEvent(t events.Type, key handleKey) events.Event {
	ev := events.New(t)
	ev.N, ev.Seed, ev.Backend = key.n, key.seed, key.backend.String()
	return ev
}
