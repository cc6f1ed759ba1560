package service

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// metrics is the daemon's instrumentation: monotone counters only, so
// every figure is cheap to record on the hot path (one atomic add) and
// every rate an operator wants — req/s, ns/item, cache hit rate — is a
// quotient of two counters computed at scrape time. The exposition
// format is the Prometheus text format, hand-rolled because the module
// deliberately has no dependencies outside the standard library.
type metrics struct {
	// requests counts completed requests per endpoint, indexed by the
	// ep* constants below.
	requests [epCount]atomic.Int64
	// errors counts requests answered with a 4xx/5xx status.
	errors atomic.Int64

	// items is the number of permutation values written by every
	// endpoint. chunk and epochs split out the two range endpoints'
	// share, with the wall time spent serving it: chunk.ns/chunk.items
	// is the served ns/item figure BENCHMARKS.md tracks.
	items  atomic.Int64
	chunk  rangeStats
	epochs rangeStats

	// Handle-cache counters: a hit found a live handle for
	// (n, seed, backend); a miss constructed one; an eviction dropped
	// the least-recently-used handle past capacity. materializations
	// counts lazy n-word builds actually run — with single-flight
	// handles it stays at one per materialized key no matter how many
	// concurrent requests raced for it.
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	cacheEvictions   atomic.Int64
	materializations atomic.Int64

	// Workload counters: assignLookups counts bucket assignments
	// served by /v1/assign (each is one O(1) bijection evaluation —
	// compare against cacheMisses/materializations to verify point
	// lookups never materialize), and epochRecycled counts the /v1/epochs
	// requests that asked for recycled-sequence key derivation.
	assignLookups atomic.Int64
	epochRecycled atomic.Int64

	// Quota counters: throttled counts requests refused with 429,
	// quotaItems the items actually debited from client buckets (every
	// admitted chunk page, point read, shuffle item and sample item —
	// the figure to compare against a client's nominal budget).
	quotaThrottled atomic.Int64
	quotaItems     atomic.Int64

	// Admission (build gate) counters: builds admitted through the
	// semaphore, requests that had to queue for a slot, queue-deadline
	// refusals (503), builds canceled because every waiting client
	// disconnected, and the in-flight build gauge.
	admissionBuilds   atomic.Int64
	admissionQueued   atomic.Int64
	admissionTimeouts atomic.Int64
	admissionCancels  atomic.Int64
	admissionInflight atomic.Int64
}

// rangeStats is one range endpoint's served values and the wall
// nanoseconds spent serving them, recorded by Server.countRange.
type rangeStats struct {
	items, ns atomic.Int64
}

// Endpoint indices for the requests counter.
const (
	epChunk = iota
	epAt
	epShuffle
	epSample
	epAssign
	epEpochs
	epEvents
	epHealthz
	epMetrics
	epCount
)

var epNames = [epCount]string{"chunk", "at", "shuffle", "sample", "assign", "epochs", "events", "healthz", "metrics"}

// write emits the counters in Prometheus text format, one family per
// metric, endpoint as a label. Families print in a fixed order so
// scrapes diff cleanly.
func (m *metrics) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP permd_requests_total Completed requests per endpoint.\n")
	fmt.Fprintf(w, "# TYPE permd_requests_total counter\n")
	names := append([]string(nil), epNames[:]...)
	sort.Strings(names)
	byName := map[string]*atomic.Int64{}
	for i := range epNames {
		byName[epNames[i]] = &m.requests[i]
	}
	for _, name := range names {
		fmt.Fprintf(w, "permd_requests_total{endpoint=%q} %d\n", name, byName[name].Load())
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("permd_request_errors_total", "Requests answered with a 4xx/5xx status.", m.errors.Load())
	counter("permd_items_total", "Permutation values served across all endpoints.", m.items.Load())
	counter("permd_chunk_items_total", "Permutation values served by the chunk endpoint.", m.chunk.items.Load())
	counter("permd_chunk_ns_total", "Wall nanoseconds spent serving chunk requests.", m.chunk.ns.Load())
	counter("permd_handle_cache_hits_total", "Chunk/at requests served from a cached Permuter handle.", m.cacheHits.Load())
	counter("permd_handle_cache_misses_total", "Permuter handles constructed on demand.", m.cacheMisses.Load())
	counter("permd_handle_cache_evictions_total", "Handles dropped by the LRU past capacity.", m.cacheEvictions.Load())
	counter("permd_materializations_total", "Lazy full-permutation builds actually run.", m.materializations.Load())
	counter("permd_assign_lookups_total", "Experiment bucket assignments served by /v1/assign.", m.assignLookups.Load())
	counter("permd_epoch_items_total", "Permutation values served by the epochs endpoint.", m.epochs.items.Load())
	counter("permd_epoch_ns_total", "Wall nanoseconds spent serving epoch chunk requests.", m.epochs.ns.Load())
	counter("permd_epoch_recycled_total", "Epoch requests served in recycled-sequence mode.", m.epochRecycled.Load())
	counter("permd_quota_throttled_total", "Requests refused with 429 by the per-client quota.", m.quotaThrottled.Load())
	counter("permd_quota_items_charged_total", "Items debited from client quota buckets.", m.quotaItems.Load())
	counter("permd_admission_builds_total", "Materializing builds admitted through the build gate.", m.admissionBuilds.Load())
	counter("permd_admission_queue_waits_total", "Build requests that queued for a busy build slot.", m.admissionQueued.Load())
	counter("permd_admission_queue_timeouts_total", "Build requests refused (503) at the queue deadline.", m.admissionTimeouts.Load())
	counter("permd_admission_cancels_total", "Builds canceled because every waiting client disconnected.", m.admissionCancels.Load())
	fmt.Fprintf(w, "# HELP permd_admission_builds_inflight Materializing builds running right now.\n")
	fmt.Fprintf(w, "# TYPE permd_admission_builds_inflight gauge\n")
	fmt.Fprintf(w, "permd_admission_builds_inflight %d\n", m.admissionInflight.Load())

	// The two derived figures operators actually watch, precomputed as
	// gauges so a bare curl needs no PromQL.
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(w, "# HELP permd_handle_cache_hit_rate Hits / (hits + misses) since start.\n")
	fmt.Fprintf(w, "# TYPE permd_handle_cache_hit_rate gauge\n")
	fmt.Fprintf(w, "permd_handle_cache_hit_rate %g\n", hitRate)
	nsPerItem := 0.0
	if ci := m.chunk.items.Load(); ci > 0 {
		nsPerItem = float64(m.chunk.ns.Load()) / float64(ci)
	}
	fmt.Fprintf(w, "# HELP permd_chunk_ns_per_item Served chunk nanoseconds per value since start.\n")
	fmt.Fprintf(w, "# TYPE permd_chunk_ns_per_item gauge\n")
	fmt.Fprintf(w, "permd_chunk_ns_per_item %g\n", nsPerItem)
}
