package cluster

import (
	"container/list"
	"fmt"
	"sync"

	"clapf/internal/baselines"
	"clapf/internal/dataset"
	"clapf/internal/rank"
	"clapf/internal/serve"
)

// staleCache is the router-local copy of recent successful top-K
// answers, keyed (user, k). It is the second rung of the degradation
// ladder: when every shard is gone, yesterday's personalized ranking
// beats today's popularity list. Unlike the shard-side result cache it
// is deliberately NOT invalidated on model reload — staleness is its
// entire point, and every hit is labeled degraded="stale_cache". An entry
// is the answer's body as the shard encoded it, not its decoded items: the
// rung splices its label onto those bytes (relay.go) as the healthy path
// does, so keeping an answer costs a pointer and serving one no encoder.
type staleCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	byKey map[staleKey]*list.Element
}

type staleKey struct {
	user int32
	k    int
}

type staleEntry struct {
	key  staleKey
	body []byte // {"user":U,"items":[…]}\n, shared and immutable
}

// staleSuffix labels a stale body; see splice.
var staleSuffix = labelSuffix(DegradedStaleCache, "")

func newStaleCache(capacity int) *staleCache {
	if capacity <= 0 {
		return nil
	}
	return &staleCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[staleKey]*list.Element, capacity),
	}
}

func (c *staleCache) get(key staleKey) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*staleEntry).body, true
}

func (c *staleCache) put(key staleKey, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*staleEntry).body = body
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&staleEntry{key: key, body: body})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*staleEntry).key)
	}
}

func (c *staleCache) size() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// popFallback is the ladder's last personalizing-free rung: a popularity
// ranking fitted once from the training data. It still excludes a known
// user's observed items (the router holds the dataset), so even the
// worst-case answer never recommends what the user already has.
type popFallback struct {
	scores []float64
	train  *dataset.Dataset
}

func newPopFallback(train *dataset.Dataset) (*popFallback, error) {
	p := baselines.NewPopRank()
	if err := p.Fit(train); err != nil {
		return nil, fmt.Errorf("cluster: fitting popularity fallback: %w", err)
	}
	scores := make([]float64, train.NumItems())
	p.ScoreAll(0, scores)
	return &popFallback{scores: scores, train: train}, nil
}

// topK ranks the catalog by popularity, excluding the known user's
// training positives or the cold-start history. ok is false when the
// user id is out of the dataset's range and no history was given —
// there is nothing defensible to serve.
func (p *popFallback) topK(user *int32, history []int32, k int) ([]serve.Item, bool) {
	var exclude func(int32) bool
	switch {
	case user != nil:
		if *user < 0 || int(*user) >= p.train.NumUsers() {
			return nil, false
		}
		pos := p.train.Positives(*user)
		idx := 0
		exclude = func(i int32) bool {
			for idx < len(pos) && pos[idx] < i {
				idx++
			}
			return idx < len(pos) && pos[idx] == i
		}
	case len(history) > 0:
		seen := make(map[int32]bool, len(history))
		for _, it := range history {
			seen[it] = true
		}
		exclude = func(i int32) bool { return seen[i] }
	default:
		return nil, false
	}
	return rank.TopK(p.scores, k, exclude), true
}
