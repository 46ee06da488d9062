// Package lru is the repository's one least-recently-used map: a
// capacity-bounded map whose Add evicts the entry touched longest ago.
// The model's encode cache (plan key → encoded plan part) and the serving
// handler's plan entry (SQL key → candidate plans) are both built on it.
//
// A Cache is not safe for concurrent use. Each user guards its Cache with
// its own mutex, which then also covers whatever per-entry state the user
// keeps inside its values.
package lru

import "container/list"

// Cache maps keys to values, most recently used first. Get and Add make
// an entry the most recently used; Add evicts from the other end.
type Cache[K comparable, V any] struct {
	cap int
	ll  *list.List // of *entry[K, V]; front = most recently used
	m   map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty Cache that holds at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, ll: list.New(), m: make(map[K]*list.Element, capacity)}
}

// Get returns the value stored under k and makes it the most recently
// used entry.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	el, ok := c.m[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores v under k as the most recently used entry, replacing the
// value already there, then evicts least recently used entries until at
// most the capacity remain.
func (c *Cache[K, V]) Add(k K, v V) {
	if el, ok := c.m[k]; ok {
		el.Value.(*entry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&entry[K, V]{k, v})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*entry[K, V]).key)
	}
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// Each calls fn on every entry, most recently used first, without
// changing the order.
func (c *Cache[K, V]) Each(fn func(K, V)) {
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		fn(e.key, e.val)
	}
}
