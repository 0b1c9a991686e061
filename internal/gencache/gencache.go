// Package gencache is the one generation-keyed cache behind the serving
// path: a value per key, tagged with the generation(s) it was built
// from, served while the caller's current tag still equals the stored
// one and rebuilt otherwise. The engine's cleaned trends, the store's
// downsample pyramids and the REST layer's serialized bodies all use
// it; only the key, tag and value types differ.
package gencache

import "sync"

// Cache maps keys to tagged values. It is safe for concurrent use.
type Cache[K comparable, T comparable, V any] struct {
	mu      sync.Mutex
	limit   int
	entries map[K]*entry[T, V]
}

type entry[T comparable, V any] struct {
	mu    sync.Mutex
	built bool
	tag   T
	val   V
}

// New returns an empty cache holding at most limit keys.
func New[K comparable, T comparable, V any](limit int) *Cache[K, T, V] {
	return &Cache[K, T, V]{limit: limit, entries: make(map[K]*entry[T, V])}
}

// Get returns key's value if it was built under tag want (a hit), and
// otherwise runs build and stores what it returns. build reports the
// tag its value really reflects, which may differ from want when the
// source moved between the caller's read of the tag and build's read
// of the data; the next Get then compares against that tag, so a
// mismatch costs one extra rebuild and never serves a value under a
// tag it was not built from. A build error is returned and nothing is
// stored.
//
// build runs under the key's own lock: concurrent Gets of one key run
// one build and the rest wait for it, while Gets of other keys proceed.
// When the cache is full, inserting a new key evicts one arbitrary
// other key.
func (c *Cache[K, T, V]) Get(key K, want T, build func() (V, T, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		if len(c.entries) >= c.limit {
			for victim := range c.entries {
				delete(c.entries, victim)
				break
			}
		}
		e = new(entry[T, V])
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.built && e.tag == want {
		return e.val, true, nil
	}
	val, tag, err := build()
	if err != nil {
		return v, false, err
	}
	e.val, e.tag, e.built = val, tag, true
	return val, false, nil
}

// Len returns the number of keys held.
func (c *Cache[K, T, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
