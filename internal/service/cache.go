package service

import (
	"container/list"
	"context"
	"sync"

	"randperm"
)

// handleKey identifies one permutation the daemon can serve. Procs is
// deliberately absent: the server pins one decomposition width at
// construction (Config.Procs), so over HTTP a chunk is fully determined
// by (n, seed, backend) — the determinism contract ARCHITECTURE.md
// states for the service layer.
type handleKey struct {
	n       int64
	seed    uint64
	backend randperm.Backend
}

// handle is what a cache entry serves from: a *randperm.Permuter, or
// in cluster mode a *cluster.Permuter for backend=cluster, which reads
// this node's shards locally and the rest of the domain from the owning
// peers instead of materializing all n words here.
type handle interface {
	Chunk(dst []int64, start int64) (int, error)
	Materialized() bool
	MaterializeContext(ctx context.Context) error
}

// handleEntry is one cache slot. The sync.Once is the single-flight
// seam: every request that resolves the same key gets the same entry,
// exactly one of them runs the constructor, and the rest block on the
// Once and then share the one handle — which in turn holds its own
// once-guarded lazy materialization, so 1000 concurrent
// first requests for one permutation cost one n-word build, not 1000.
type handleEntry struct {
	key  handleKey
	once sync.Once
	pm   handle
	err  error
	// gate serializes and bounds the handle's lazy materialization (see
	// admission.go): handle *construction* is cheap and runs on the Once
	// above, but the n-word build a materializing handle defers is
	// admitted through the server's build semaphore and canceled when
	// every waiting client disconnects.
	gate buildGate
}

// handleCache is an LRU of Permuter handles keyed by (n, seed, backend).
// The lock covers only the map and recency list; handle construction
// (and the materialization hiding behind it) runs outside the lock on
// the entry's Once, so a slow build never blocks requests for other
// keys. An evicted entry that racing requests still hold finishes its
// build for them and is garbage collected when they finish — eviction
// only forgets the handle, it never invalidates in-flight use.
type handleCache struct {
	capacity int
	build    func(handleKey) (handle, error)
	// onEvict is told about each key dropped by the LRU — called outside
	// the cache lock, after the eviction took effect.
	onEvict func(handleKey)

	mu      sync.Mutex
	entries map[handleKey]*list.Element // value: *handleEntry
	lru     *list.List                  // front = most recently used
}

func newHandleCache(capacity int, build func(handleKey) (handle, error), onEvict func(handleKey)) *handleCache {
	if capacity < 1 {
		capacity = 1
	}
	return &handleCache{
		capacity: capacity,
		build:    build,
		onEvict:  onEvict,
		entries:  make(map[handleKey]*list.Element),
		lru:      list.New(),
	}
}

// get returns the cache entry for key, constructing its handle (once,
// shared across racing callers) on a miss, and reports whether the
// entry was already resident (the request-event cache outcome). Callers
// read the handle from entry.pm and run materializing builds through
// the entry's gate.
func (c *handleCache) get(key handleKey) (*handleEntry, bool, error) {
	c.mu.Lock()
	var e *handleEntry
	var hit bool
	var evicted []handleKey
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e = el.Value.(*handleEntry)
		hit = true
	} else {
		e = &handleEntry{key: key}
		c.entries[key] = c.lru.PushFront(e)
		for c.lru.Len() > c.capacity {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			oldKey := oldest.Value.(*handleEntry).key
			delete(c.entries, oldKey)
			evicted = append(evicted, oldKey)
		}
	}
	c.mu.Unlock()
	for _, k := range evicted {
		c.onEvict(k)
	}

	e.once.Do(func() {
		e.pm, e.err = c.build(key)
	})
	if e.err != nil {
		// Do not cache failures: drop the entry so the next request
		// retries instead of replaying a stale error forever.
		c.mu.Lock()
		if el, ok := c.entries[key]; ok && el.Value.(*handleEntry) == e {
			c.lru.Remove(el)
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, hit, e.err
	}
	return e, hit, nil
}

// len reports how many handles are resident (for /healthz).
func (c *handleCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
