package serve

import (
	"container/list"
	"sync"
)

// lruOf is the package's one LRU: a bounded mutex+list cache over values
// of type V. lruOf[[]byte] is the server's response cache of rendered
// bodies: one hangs off each published state, so a hot-swap retires every
// stale entry at once — there is no invalidation protocol, the old cache
// simply becomes unreachable with its state.
type lruOf[V any] struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type entryOf[V any] struct {
	key string
	val V
}

// newLRU builds a cache bounded to cap entries; cap <= 0 disables caching
// entirely (get always misses, put is a no-op).
func newLRU[V any](cap int) *lruOf[V] {
	return &lruOf[V]{cap: cap, items: make(map[string]*list.Element), order: list.New()}
}

// get returns the cached value for key and whether it was present.
func (c *lruOf[V]) get(key string) (V, bool) {
	var zero V
	if c.cap <= 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entryOf[V]).val, true
}

// put stores val under key, evicting the least recently used entry when
// the cache is full. The caller must not mutate val afterwards.
func (c *lruOf[V]) put(key string, val V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entryOf[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entryOf[V]).key)
	}
	c.items[key] = c.order.PushFront(&entryOf[V]{key: key, val: val})
}

// len reports the current entry count.
func (c *lruOf[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
