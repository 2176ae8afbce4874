package serve

import (
	"container/list"
	"sync"

	"clapf/internal/retrieval"
)

// resultCache is a bounded LRU of finished top-K responses keyed on
// (user id, k). It holds no generation field on purpose: invalidation is
// structural. Each liveState owns exactly one cache, created empty when
// the model is installed, and a model swap replaces the whole liveState
// pointer atomically — so a request that loaded the old state keeps
// reading (and even writing) the old cache, which is then garbage, while
// no request holding the new state can ever observe a pre-swap entry.
//
// Only known-user requests are cached: cold-start histories are free-form
// and would make the key space unbounded.
//
// What is not structural is one user's feedback event: invalidateUser drops
// that user's entries from a cache that stays live, and a request that
// missed before the drop may still be ranking under the exclusion list it
// read then. invalidations counts the drops; get reports the count it saw
// and put refuses an entry computed under an older one, so a late fill can
// never park an item whose ingest has since been acknowledged.
type resultCache struct {
	mu            sync.Mutex
	cap           int
	ll            *list.List // front = most recently used
	byKey         map[cacheKey]*list.Element
	invalidations uint64
}

// cacheKey carries the retrieval mode alongside (user, k): exact and IVF
// answers for the same request differ, and SetRetrieval rebuilds the
// liveState but a request racing it may still write into the old
// generation's cache — keying on mode means such an entry can never be
// served under the other mode.
type cacheKey struct {
	user int32
	k    int
	mode retrieval.Mode
}

// cacheEntry is one finished answer. body is the encoded /recommend
// response for items — what a hit writes, with no encoder in the way — and
// is nil until a single GET has encoded it (a batch fills items alone).
// Both are shared between requests and immutable.
type cacheEntry struct {
	key   cacheKey
	items []Item
	body  []byte
}

// newResultCache returns a cache bounded to capacity entries, or nil when
// capacity <= 0 (caching disabled; all lookups miss).
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[cacheKey]*list.Element, capacity),
	}
}

// get returns the entry cached under key, marking it most-recently used,
// or on a miss an empty entry carrying the key. seen is the invalidation
// count at the time of the read: what put must be handed for anything
// derived from it.
func (c *resultCache) get(key cacheKey) (e cacheEntry, seen uint64, ok bool) {
	if c == nil {
		return cacheEntry{key: key}, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return cacheEntry{key: key}, c.invalidations, false
	}
	c.ll.MoveToFront(el)
	return *el.Value.(*cacheEntry), c.invalidations, true
}

// put stores e under its key and reports how many entries were evicted to
// stay within capacity (0 or 1). Re-putting an existing key replaces items
// and body together and refreshes it. An entry whose get saw an older
// invalidation count is dropped: a user's entries were invalidated while it
// was being computed, and it may be that user's.
func (c *resultCache) put(e cacheEntry, seen uint64) (evicted int) {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if seen != c.invalidations {
		return 0
	}
	if el, ok := c.byKey[e.key]; ok {
		*el.Value.(*cacheEntry) = e
		c.ll.MoveToFront(el)
		return 0
	}
	stored := e // declared here so that only an insertion allocates
	c.byKey[e.key] = c.ll.PushFront(&stored)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}

// invalidateUser drops every entry belonging to user u — the targeted
// invalidation the online-update path needs: one user's factors changed,
// so only that user's cached top-K answers (across all k and modes) are
// stale; everyone else's stay warm. The scan is over the key map, bounded
// by the cache capacity (microseconds at the default 4096), and runs
// under the same mutex as get/put. The count moves even when nothing was
// cached: the request to refuse is the one that has not filled yet.
func (c *resultCache) invalidateUser(u int32) (removed int) {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations++
	for key, el := range c.byKey {
		if key.user == u {
			c.ll.Remove(el)
			delete(c.byKey, key)
			removed++
		}
	}
	return removed
}

// size returns the current entry count.
func (c *resultCache) size() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
