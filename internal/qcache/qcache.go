// Package qcache provides the serving-layer caches: a sharded,
// cost-bounded LRU keyed by strings. It backs both the SPARQL plan cache
// (query text -> parsed query, cost 1 per entry) and the result cache
// (normalized query -> decoded rows, cost = row count), so the budget unit
// is whatever the caller's cost function measures.
//
// Design: entries hash to one of a fixed number of shards, each guarded by
// its own sync.Mutex and holding an intrusive doubly-linked LRU list plus a
// map for O(1) lookup. The cost budget is global (an atomic counter) while
// eviction is local: an insert that pushes the cache over budget evicts
// from its own shard's cold end until the global budget fits again. With
// uniformly hashed keys this tracks a true global LRU closely without any
// cross-shard locking on the hot path.
package qcache

import (
	"sync"
	"sync/atomic"
)

// entry is one cached key/value pair, threaded on its shard's LRU list
// (head = most recently used).
type entry[V any] struct {
	key        string
	val        V
	cost       int64
	prev, next *entry[V]
}

type shard[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V]
	head    *entry[V] // most recently used
	tail    *entry[V] // least recently used
}

// Cache is a sharded LRU with a global cost budget. The zero value is not
// usable; construct with New.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint64
	budget int64

	used      atomic.Int64
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Cost      int64  `json:"cost"`
	Budget    int64  `json:"budget"`
}

// New returns a cache holding at most budget total cost across shards
// (shards is rounded up to a power of two; values <= 1 mean a single
// shard). A budget <= 0 yields a cache that never stores anything, so
// callers can leave caching "wired but off" without nil checks.
func New[V any](budget int64, shards int) *Cache[V] {
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache[V]{shards: make([]shard[V], n), mask: uint64(n - 1), budget: budget}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry[V])
	}
	return c
}

// fnv-1a; inlined to keep the package dependency-free and the hash cheap.
func hash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (c *Cache[V]) shard(key string) *shard[V] {
	return &c.shards[hash(key)&c.mask]
}

// Get returns the value cached under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	sh.moveToHead(e)
	val := e.val
	sh.mu.Unlock()
	c.hits.Add(1)
	return val, true
}

// Put stores val under key at the given cost (clamped up to 1), evicting
// cold entries from key's shard until the global budget fits. It reports
// whether the value was stored: a cost above the whole budget is rejected
// outright, since caching it would empty everything else for one entry.
// Re-putting an existing key replaces the value and cost.
func (c *Cache[V]) Put(key string, val V, cost int64) bool {
	if cost < 1 {
		cost = 1
	}
	if cost > c.budget {
		return false
	}
	sh := c.shard(key)
	sh.mu.Lock()
	if old, ok := sh.entries[key]; ok {
		sh.unlink(old)
		delete(sh.entries, key)
		c.used.Add(-old.cost)
	}
	e := &entry[V]{key: key, val: val, cost: cost}
	sh.entries[key] = e
	sh.pushHead(e)
	c.used.Add(cost)
	// Evict from this shard's cold end while over the global budget. Never
	// evict the entry just inserted: if the overshoot lives in other
	// shards, their next insert pays it down.
	for c.used.Load() > c.budget && sh.tail != nil && sh.tail != e {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		c.used.Add(-victim.cost)
		c.evictions.Add(1)
	}
	sh.mu.Unlock()
	return true
}

// Delete removes key if present.
func (c *Cache[V]) Delete(key string) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.unlink(e)
		delete(sh.entries, key)
		c.used.Add(-e.cost)
	}
	sh.mu.Unlock()
}

// DeleteFunc removes every entry for which drop reports true and returns
// how many it removed. drop runs with the entry's shard locked and must not
// call back into the cache. Removals are not counted as evictions: the
// caller decided the entries were dead, the budget did not push them out.
func (c *Cache[V]) DeleteFunc(drop func(key string, val V) bool) int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for key, e := range sh.entries {
			if drop(key, e.val) {
				sh.unlink(e)
				delete(sh.entries, key)
				c.used.Add(-e.cost)
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Cost:      c.used.Load(),
		Budget:    c.budget,
	}
}

func (sh *shard[V]) pushHead(e *entry[V]) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard[V]) moveToHead(e *entry[V]) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushHead(e)
}
