// Package lru is permd's one bounded cache: a map holding at most a
// fixed number of entries, evicted least recently used first, whose
// values are built on first use. Every cache of the daemon — Permuter
// handles, cluster shards, quota buckets and epoch-key derivers — is a
// Cache, so the policy below is stated and implemented once:
//
//   - single flight: callers racing on one key share one build;
//   - LRU eviction: inserting past the capacity drops the least
//     recently used entry, and eviction only forgets it — a caller
//     already holding the entry still gets its value;
//   - failures are not cached: a failed build drops its entry, so the
//     next Get builds again instead of replaying a stale error;
//   - Remove drops an entry on the owner's word, with the same rule as
//     eviction: a caller already holding the value keeps it, and the
//     next Get builds again.
package lru

import (
	"container/list"
	"iter"
	"sync"
	"sync/atomic"
)

// Cache is a bounded LRU map from K to built values of V, safe for
// concurrent use. The lock covers only the map and the recency list:
// a build runs outside it, on its entry's sync.Once, so a slow build
// never blocks callers of other keys.
type Cache[K comparable, V any] struct {
	capacity int
	onEvict  func(K)

	mu      sync.Mutex
	entries map[K]*list.Element // value: *entry[K, V]
	order   *list.List          // front = most recently used
}

// entry is one slot. once is the single-flight seam; built is set,
// after val, when the build succeeded, so Peek and All can read val
// without taking part in the build.
type entry[K comparable, V any] struct {
	key   K
	once  sync.Once
	val   V
	err   error
	built atomic.Bool
}

// New returns an empty cache holding at most capacity entries (at
// least one). onEvict, when non-nil, is told each key the LRU drops;
// it is called outside the lock, after the eviction took effect, so it
// may call back into the cache.
func New[K comparable, V any](capacity int, onEvict func(K)) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: max(capacity, 1),
		onEvict:  onEvict,
		entries:  make(map[K]*list.Element),
		order:    list.New(),
	}
}

// Get returns key's value, running build on a miss, and reports
// whether the entry was already resident (built or still building).
// Racing callers of one key share one build and its result. A failed
// build's error goes to every caller that shared it, and the entry is
// dropped so that the next Get builds again.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	var e, evicted *entry[K, V]
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		e, hit = el.Value.(*entry[K, V]), true
	} else {
		e = &entry[K, V]{key: key}
		c.entries[key] = c.order.PushFront(e)
		// Failed entries leave the map, so one insertion overfills it
		// by at most one.
		if c.order.Len() > c.capacity {
			evicted = c.order.Remove(c.order.Back()).(*entry[K, V])
			delete(c.entries, evicted.key)
		}
	}
	c.mu.Unlock()
	if evicted != nil && c.onEvict != nil {
		c.onEvict(evicted.key)
	}

	e.once.Do(func() {
		e.val, e.err = build()
		e.built.Store(e.err == nil)
	})
	if e.err != nil {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok && el.Value == e {
			c.order.Remove(el)
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return v, hit, e.err
	}
	return e.val, hit, nil
}

// Remove drops key's entry, if resident, whether built or still
// building; onEvict is not told. Callers already sharing the entry's
// build still get its value, and the next Get builds a new entry.
func (c *Cache[K, V]) Remove(key K) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
	c.mu.Unlock()
}

// Peek returns key's value if it is resident and built, without
// building it and without changing its recency. An entry still
// building, or whose build failed, reports false.
func (c *Cache[K, V]) Peek(key K) (v V, ok bool) {
	c.mu.Lock()
	el, found := c.entries[key]
	c.mu.Unlock()
	if !found {
		return v, false
	}
	if e := el.Value.(*entry[K, V]); e.built.Load() {
		return e.val, true
	}
	return v, false
}

// All iterates over the built entries, most recently used first. The
// entries are read under the lock when iteration starts and yielded
// outside it; entries still building, or failed, are skipped.
func (c *Cache[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		var built []*entry[K, V]
		c.mu.Lock()
		for el := c.order.Front(); el != nil; el = el.Next() {
			if e := el.Value.(*entry[K, V]); e.built.Load() {
				built = append(built, e)
			}
		}
		c.mu.Unlock()
		for _, e := range built {
			if !yield(e.key, e.val) {
				return
			}
		}
	}
}

// Len reports how many entries are resident, including those still
// building.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
