// Package lru is the one bounded least-recently-used map of the service.
// The replica's compiled-circuit and result caches and the router's
// netlist-text and stale-serve stores are all built on it, and keep only
// what differs between them: what they store, and what an eviction costs.
package lru

import "sync"

// Cache is a map bounded to a fixed number of entries. A Put past the bound
// evicts the least recently used entry; Get and Put count as uses. A Cache
// is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	onEvict  func(K, V)
	m        map[K]*entry[K, V]
	// root is the sentinel of a circular list in recency order: root.next
	// is the most recently used entry, root.prev the least.
	root entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New returns an empty cache holding at most capacity entries; a capacity
// below 1 holds one. onEvict, when not nil, is called once for every entry
// a Put evicts to stay within capacity, on the goroutine that called Put,
// after the cache's own lock is released. Remove and a Put that replaces a
// present key do not call it.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	c := &Cache[K, V]{capacity: max(capacity, 1), onEvict: onEvict, m: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Put stores v under k as the most recently used entry, replacing any value
// already there. When that takes the cache past its capacity, the least
// recently used entry is evicted.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	e, ok := c.m[k]
	if ok {
		c.unlink(e)
	} else {
		e = &entry[K, V]{key: k}
		c.m[k] = e
	}
	e.val = v
	c.pushFront(e)
	var victim *entry[K, V]
	if len(c.m) > c.capacity {
		victim = c.root.prev
		c.unlink(victim)
		delete(c.m, victim.key)
	}
	c.mu.Unlock()
	if victim != nil && c.onEvict != nil {
		c.onEvict(victim.key, victim.val)
	}
}

// Remove deletes k and returns the value it held.
func (c *Cache[K, V]) Remove(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.unlink(e)
	delete(c.m, k)
	return e.val, true
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Values returns every stored value, most recently used first. Listing is
// not a use: it leaves the order as it was.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, len(c.m))
	for e := c.root.next; e != &c.root; e = e.next {
		out = append(out, e.val)
	}
	return out
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}
