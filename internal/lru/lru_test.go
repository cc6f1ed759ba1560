package lru

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// value returns a build that yields v.
func value(v int) func() (int, error) { return func() (int, error) { return v, nil } }

// keys lists the cache's built keys in All's order.
func keys(c *Cache[string, int]) []string {
	var out []string
	for k := range c.All() {
		out = append(out, k)
	}
	return out
}

// TestSingleFlight: many goroutines racing on one cold key run one
// build, all get its value, and exactly one of them sees a miss.
func TestSingleFlight(t *testing.T) {
	const racers = 200
	c := New[string, int](4, nil)
	var builds, misses atomic.Int64
	release := make(chan struct{})
	build := func() (int, error) {
		builds.Add(1)
		<-release // hold the build open so the racers pile up on it
		return 42, nil
	}
	var ready, wg sync.WaitGroup
	for range racers {
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			v, hit, err := c.Get("k", build)
			if err != nil || v != 42 {
				t.Errorf("Get = %d, %v; want 42, nil", v, err)
			}
			if !hit {
				misses.Add(1)
			}
		}()
	}
	ready.Wait()
	close(release)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Errorf("builds = %d, want 1", got)
	}
	if got := misses.Load(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

// TestErrorNotCached: a failed build reaches its caller, leaves no
// entry, and the next Get builds again.
func TestErrorNotCached(t *testing.T) {
	c := New[string, int](4, nil)
	boom := errors.New("boom")
	if _, _, err := c.Get("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("Get error = %v, want %v", err, boom)
	}
	if c.Len() != 0 {
		t.Errorf("Len after a failed build = %d, want 0", c.Len())
	}
	if _, ok := c.Peek("k"); ok {
		t.Error("Peek found a failed entry")
	}
	v, hit, err := c.Get("k", value(7))
	if err != nil || v != 7 || hit {
		t.Errorf("Get after failure = %d, hit %v, %v; want 7, miss, nil", v, hit, err)
	}
}

// TestEvictionOrder: past the capacity the least recently used entry
// goes, a Get refreshes recency, and onEvict runs outside the lock — a
// callback that calls back into the cache must not deadlock.
func TestEvictionOrder(t *testing.T) {
	var evicted []string
	var c *Cache[string, int]
	c = New[string, int](2, func(k string) {
		if n := c.Len(); n != 2 {
			t.Errorf("Len inside onEvict = %d, want 2", n)
		}
		evicted = append(evicted, k)
	})
	c.Get("a", value(1))
	c.Get("b", value(2))
	c.Get("a", value(1)) // a is now the most recent
	c.Get("c", value(3)) // evicts b
	c.Get("d", value(4)) // evicts a
	if want := []string{"b", "a"}; !slices.Equal(evicted, want) {
		t.Errorf("evicted %v, want %v", evicted, want)
	}
	if got, want := keys(c), []string{"d", "c"}; !slices.Equal(got, want) {
		t.Errorf("All order %v, want %v", got, want)
	}
	if _, hit, _ := c.Get("b", value(2)); hit {
		t.Error("evicted key reported as a hit")
	}
}

// TestCapacityFloor: a capacity below one still holds one entry.
func TestCapacityFloor(t *testing.T) {
	c := New[string, int](0, nil)
	c.Get("a", value(1))
	c.Get("b", value(2))
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestPeek: Peek never builds, and reading an entry through it leaves
// its recency alone.
func TestPeek(t *testing.T) {
	c := New[string, int](2, nil)
	if _, ok := c.Peek("a"); ok || c.Len() != 0 {
		t.Fatal("Peek of a missing key found or inserted it")
	}
	c.Get("a", value(1))
	c.Get("b", value(2))
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Errorf("Peek(a) = %d, %v; want 1, true", v, ok)
	}
	c.Get("c", value(3)) // a is still the oldest despite the Peek
	if _, ok := c.Peek("a"); ok {
		t.Error("Peek promoted a: it survived an eviction it should have taken")
	}
	if _, ok := c.Peek("b"); !ok {
		t.Error("b was evicted in a's place")
	}
}

// TestAllSkipsUnbuilt: All lists built entries MRU-first and leaves out
// an entry still building and one whose build failed; Peek agrees.
func TestAllSkipsUnbuilt(t *testing.T) {
	c := New[string, int](4, nil)
	c.Get("a", value(1))
	c.Get("b", value(2))

	started, release := make(chan struct{}), make(chan struct{})
	failed, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		c.Get("slow", func() (int, error) {
			close(started)
			<-release
			return 3, nil
		})
	}()
	<-started
	go func() {
		defer close(failed)
		c.Get("bad", func() (int, error) {
			<-release
			return 0, errors.New("boom")
		})
	}()

	if c.Len() < 3 {
		t.Errorf("Len = %d, want the building entry counted", c.Len())
	}
	if got, want := keys(c), []string{"b", "a"}; !slices.Equal(got, want) {
		t.Errorf("All while building = %v, want %v", got, want)
	}
	if _, ok := c.Peek("slow"); ok {
		t.Error("Peek found an entry still building")
	}
	close(release)
	<-done
	<-failed
	if got, want := keys(c), []string{"slow", "b", "a"}; !slices.Equal(got, want) {
		t.Errorf("All after builds = %v, want %v", got, want)
	}
	for range c.All() {
		break // stopping early must not wedge the cache
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
}

// TestRemove: removing a resident entry forgets it without telling
// onEvict, and the next Get builds again; removing an absent key is a
// no-op that leaves the other entries and their order alone.
func TestRemove(t *testing.T) {
	var evicted []string
	c := New[string, int](4, func(k string) { evicted = append(evicted, k) })
	c.Get("a", value(1))
	c.Get("b", value(2))
	c.Remove("a")
	if _, ok := c.Peek("a"); ok || c.Len() != 1 {
		t.Fatalf("after Remove(a): Peek found it or Len = %d, want 1", c.Len())
	}
	c.Remove("a")
	c.Remove("never")
	if got, want := keys(c), []string{"b"}; !slices.Equal(got, want) {
		t.Errorf("All after removing absent keys = %v, want %v", got, want)
	}
	if len(evicted) != 0 {
		t.Errorf("onEvict told of %v, want nothing", evicted)
	}
	v, hit, err := c.Get("a", value(3))
	if err != nil || v != 3 || hit {
		t.Errorf("Get after Remove = %d, hit %v, %v; want a fresh build of 3, miss, nil", v, hit, err)
	}
}

// TestRemoveDuringBuild: removing an entry whose build is in flight
// leaves that build to the callers sharing it — they get its value —
// while the next Get runs a build of its own; the orphaned build, when
// it finishes, does not displace the new entry.
func TestRemoveDuringBuild(t *testing.T) {
	c := New[string, int](4, nil)
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var first int
	go func() {
		defer close(done)
		first, _, _ = c.Get("k", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	c.Remove("k")
	if c.Len() != 0 {
		t.Errorf("Len after removing a building entry = %d, want 0", c.Len())
	}
	v, hit, err := c.Get("k", value(2))
	if err != nil || v != 2 || hit {
		t.Errorf("Get after Remove = %d, hit %v, %v; want a fresh build of 2, miss, nil", v, hit, err)
	}
	close(release)
	<-done
	if first != 1 {
		t.Errorf("the in-flight build's caller got %d, want 1", first)
	}
	if v, ok := c.Peek("k"); !ok || v != 2 || c.Len() != 1 {
		t.Errorf("Peek(k) = %d, %v with Len %d; want the rebuilt 2, true, 1", v, ok, c.Len())
	}
}

// TestRemoveHeldValue: a caller holding a value keeps it across a
// Remove, and the rebuilt entry is a new value, not the old one.
func TestRemoveHeldValue(t *testing.T) {
	c := New[string, *int](4, nil)
	one, two := 1, 2
	held, _, _ := c.Get("k", func() (*int, error) { return &one, nil })
	c.Remove("k")
	rebuilt, hit, _ := c.Get("k", func() (*int, error) { return &two, nil })
	if hit || held != &one || *held != 1 || rebuilt != &two {
		t.Errorf("held %v (%d), rebuilt %v, hit %v; want the old value kept and a new one built", held, *held, rebuilt, hit)
	}
}
