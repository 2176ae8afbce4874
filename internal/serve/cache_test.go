package serve

import (
	"fmt"
	"testing"

	"clapf/internal/rank"
)

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	a := []Item{{Item: 1, Score: 0.5}}
	b := []Item{{Item: 2, Score: 0.4}}
	cc := []Item{{Item: 3, Score: 0.3}}

	if _, _, ok := c.get(cacheKey{user: 1, k: 5}); ok {
		t.Fatal("empty cache returned a hit")
	}
	if ev := c.put(cacheEntry{key: cacheKey{user: 1, k: 5}, items: a}, 0); ev != 0 {
		t.Fatalf("first put evicted %d", ev)
	}
	c.put(cacheEntry{key: cacheKey{user: 2, k: 5}, items: b}, 0)

	// Touch user 1 so user 2 is the LRU victim.
	if got, _, ok := c.get(cacheKey{user: 1, k: 5}); !ok || got.items[0].Item != 1 {
		t.Fatalf("get(1) = %v, %v", got, ok)
	}
	if ev := c.put(cacheEntry{key: cacheKey{user: 3, k: 5}, items: cc}, 0); ev != 1 {
		t.Fatalf("over-capacity put evicted %d, want 1", ev)
	}
	if _, _, ok := c.get(cacheKey{user: 2, k: 5}); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, _, ok := c.get(cacheKey{user: 1, k: 5}); !ok {
		t.Error("recently used entry was evicted")
	}
	if c.size() != 2 {
		t.Errorf("size = %d, want 2", c.size())
	}

	// Same user, different k is a distinct key.
	if _, _, ok := c.get(cacheKey{user: 1, k: 7}); ok {
		t.Error("k is not part of the cache key")
	}

	// Re-putting an existing key refreshes without eviction.
	if ev := c.put(cacheEntry{key: cacheKey{user: 1, k: 5}, items: b}, 0); ev != 0 || c.size() != 2 {
		t.Errorf("refresh put: evicted %d, size %d", ev, c.size())
	}
}

func TestResultCacheNilDisabled(t *testing.T) {
	var c *resultCache // what newResultCache(0) returns
	if newResultCache(0) != nil {
		t.Fatal("capacity 0 should disable the cache")
	}
	if _, _, ok := c.get(cacheKey{user: 1, k: 5}); ok {
		t.Error("nil cache hit")
	}
	if ev := c.put(cacheEntry{key: cacheKey{user: 1, k: 5}}, 0); ev != 0 {
		t.Errorf("nil cache evicted %d", ev)
	}
	if c.size() != 0 {
		t.Errorf("nil cache size = %d", c.size())
	}
}

func TestCacheCountersAndMetrics(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()

	get(t, h, "/recommend?user=2&k=5") // miss
	get(t, h, "/recommend?user=2&k=5") // hit
	get(t, h, "/recommend?user=2&k=6") // different k: miss
	get(t, h, "/recommend?user=3&k=5") // different user: miss

	samples := scrape(t, h)
	if samples["clapf_cache_hits_total"] != 1 {
		t.Errorf("hits = %v, want 1", samples["clapf_cache_hits_total"])
	}
	if samples["clapf_cache_misses_total"] != 3 {
		t.Errorf("misses = %v, want 3", samples["clapf_cache_misses_total"])
	}
	if samples["clapf_cache_entries"] != 3 {
		t.Errorf("entries = %v, want 3", samples["clapf_cache_entries"])
	}
	if samples["clapf_cache_evictions_total"] != 0 {
		t.Errorf("evictions = %v, want 0", samples["clapf_cache_evictions_total"])
	}
}

func TestCacheEvictionBound(t *testing.T) {
	s, _ := testServer(t)
	s.SetCacheSize(2)
	h := s.Handler()
	for u := 0; u < 5; u++ {
		get(t, h, fmt.Sprintf("/recommend?user=%d&k=4", u))
	}
	samples := scrape(t, h)
	if samples["clapf_cache_evictions_total"] != 3 {
		t.Errorf("evictions = %v, want 3", samples["clapf_cache_evictions_total"])
	}
	if samples["clapf_cache_entries"] != 2 {
		t.Errorf("entries = %v, want 2 (the capacity)", samples["clapf_cache_entries"])
	}
	// Cached responses still match fresh computation for the retained keys.
	_, cached := get(t, h, "/recommend?user=4&k=4")
	if len(cached.Items) != 4 {
		t.Fatalf("cached entry has %d items", len(cached.Items))
	}
}

func TestSetCacheSizeZeroDisables(t *testing.T) {
	s, _ := testServer(t)
	s.SetCacheSize(0)
	h := s.Handler()
	get(t, h, "/recommend?user=1&k=3")
	get(t, h, "/recommend?user=1&k=3")
	samples := scrape(t, h)
	if samples["clapf_cache_hits_total"] != 0 || samples["clapf_cache_misses_total"] != 0 {
		t.Errorf("disabled cache recorded hits=%v misses=%v",
			samples["clapf_cache_hits_total"], samples["clapf_cache_misses_total"])
	}
	if s.CacheSize() != 0 {
		t.Errorf("CacheSize = %d", s.CacheSize())
	}
}

// The acceptance property of the generation-keyed cache: after Install,
// no request may be answered with a pre-swap entry. The swapped-in model
// negates every parameter, which reverses the score order — if any stale
// entry leaked through, the comparison against freshly computed rankings
// would catch it.
func TestCacheInvalidatedOnSwapModel(t *testing.T) {
	s, train := testServer(t)
	h := s.Handler()
	const k = 5
	users := []int32{0, 1, 2, 3, 7}

	// Prime and re-read the cache for every user.
	before := make(map[int32][]Item)
	for _, u := range users {
		_, body := get(t, h, fmt.Sprintf("/recommend?user=%d&k=%d", u, k))
		before[u] = body.Items
		_, again := get(t, h, fmt.Sprintf("/recommend?user=%d&k=%d", u, k))
		if len(again.Items) == 0 || again.Items[0] != body.Items[0] {
			t.Fatalf("user %d: cached re-read disagrees with first read", u)
		}
	}
	preSwapHits := s.cacheHits.Value()
	if preSwapHits == 0 {
		t.Fatal("cache never hit; the invalidation check would be vacuous")
	}

	// Swap in the negated model: every score flips sign, so rankings are
	// reversed and stale entries are maximally distinguishable.
	neg := s.Model().Clone()
	u, v, b := neg.RawParams()
	for i := range u {
		u[i] = -u[i]
	}
	for i := range v {
		v[i] = -v[i]
	}
	for i := range b {
		b[i] = -b[i]
	}
	if err := s.Install(neg, InstallOpts{Folded: KeepFoldedSeq}); err != nil {
		t.Fatal(err)
	}

	for _, usr := range users {
		_, body := get(t, h, fmt.Sprintf("/recommend?user=%d&k=%d", usr, k))
		scores := make([]float64, neg.NumItems())
		neg.ScoreAll(usr, scores)
		want := rank.TopK(scores, k, func(i int32) bool { return train.IsPositive(usr, i) })
		if len(body.Items) != len(want) {
			t.Fatalf("user %d: %d items post-swap, want %d", usr, len(body.Items), len(want))
		}
		for i := range want {
			if body.Items[i].Item != want[i].Item || body.Items[i].Score != want[i].Score {
				t.Fatalf("user %d rank %d: got %+v, want item %d score %v — stale cache entry served",
					usr, i, body.Items[i], want[i].Item, want[i].Score)
			}
		}
		if len(body.Items) > 0 && before[usr][0] == body.Items[0] {
			t.Errorf("user %d: top item unchanged by the negated swap; test lost its teeth", usr)
		}
	}

	// Every post-swap read above was a miss against the fresh cache.
	if got := s.cacheHits.Value(); got != preSwapHits {
		t.Errorf("cache hits moved %d -> %d across the swap; stale generation served",
			preSwapHits, got)
	}
}

func TestCacheInvalidateUserIsTargeted(t *testing.T) {
	c := newResultCache(8)
	a := []Item{{Item: 1, Score: 0.5}}
	// User 7 under two ks and two modes; users 8 and 9 once each.
	c.put(cacheEntry{key: cacheKey{user: 7, k: 5}, items: a}, 0)
	c.put(cacheEntry{key: cacheKey{user: 7, k: 10}, items: a}, 0)
	c.put(cacheEntry{key: cacheKey{user: 7, k: 5, mode: 1}, items: a}, 0)
	c.put(cacheEntry{key: cacheKey{user: 8, k: 5}, items: a}, 0)
	c.put(cacheEntry{key: cacheKey{user: 9, k: 10}, items: a}, 0)

	if removed := c.invalidateUser(7); removed != 3 {
		t.Fatalf("invalidateUser(7) removed %d entries, want 3", removed)
	}
	if _, _, ok := c.get(cacheKey{user: 7, k: 5}); ok {
		t.Error("user 7 entry survived invalidation")
	}
	if _, _, ok := c.get(cacheKey{user: 7, k: 5, mode: 1}); ok {
		t.Error("user 7 IVF-mode entry survived invalidation")
	}
	// Everyone else's entries stay warm — the whole point of targeted
	// invalidation.
	if _, _, ok := c.get(cacheKey{user: 8, k: 5}); !ok {
		t.Error("user 8 entry was collaterally invalidated")
	}
	if _, _, ok := c.get(cacheKey{user: 9, k: 10}); !ok {
		t.Error("user 9 entry was collaterally invalidated")
	}
	if c.size() != 2 {
		t.Errorf("size = %d, want 2", c.size())
	}
	// Nil cache and absent user are both safe no-ops.
	var nilCache *resultCache
	if removed := nilCache.invalidateUser(7); removed != 0 {
		t.Errorf("nil cache invalidation removed %d", removed)
	}
	if removed := c.invalidateUser(42); removed != 0 {
		t.Errorf("absent user invalidation removed %d", removed)
	}
}
