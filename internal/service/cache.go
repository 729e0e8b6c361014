package service

import (
	"sync/atomic"

	"qlec/internal/obs"
)

// maxCachedEnvelopes bounds the in-memory layer of the result cache;
// entries beyond it stay reachable through the disk store, so eviction
// costs a file read, never a re-simulation.
const maxCachedEnvelopes = 256

// resultCache is the content-addressed result index: hash → envelope,
// a bounded in-memory layer write-through-backed by the disk store
// (when one is configured). A memory miss asks the store, so results a
// previous process left behind hit without being indexed at boot.
// hits/misses count submission-time lookups only — the numbers behind
// /metrics' cache hit rate — not /v1/results fetches.
type resultCache struct {
	mem   *obs.Bounded[string, *ResultEnvelope]
	store *Store // nil = memory-only

	hits   atomic.Int64
	misses atomic.Int64
}

// newResultCache builds the cache over an optional store.
func newResultCache(store *Store) *resultCache {
	return &resultCache{
		mem:   obs.NewBounded[string, *ResultEnvelope](maxCachedEnvelopes),
		store: store,
	}
}

// peek fetches without touching the counters (the submission path
// counts hits/misses itself, once per submission; result downloads and
// internal checks don't count). A disk hit repopulates the memory
// layer.
func (c *resultCache) peek(hash string) (*ResultEnvelope, bool) {
	if env, ok := c.mem.Get(hash); ok {
		return env, true
	}
	if c.store == nil {
		return nil, false
	}
	env, err := c.store.LoadResult(hash)
	if err != nil {
		return nil, false
	}
	c.mem.Put(hash, env)
	return env, true
}

// put records a result, optionally persisting it. The returned error is
// the persistence outcome; the in-memory record is installed either
// way, so a full disk degrades durability, not correctness. Past the
// memory bound the oldest entry leaves memory; the disk layer still has
// it (or the re-simulation cost is bounded for memory-only servers).
func (c *resultCache) put(hash string, env *ResultEnvelope, persist bool) error {
	var err error
	if persist && c.store != nil {
		err = c.store.SaveResult(hash, env)
	}
	c.mem.Put(hash, env)
	return err
}

// stats returns the submission-path counters.
func (c *resultCache) stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
