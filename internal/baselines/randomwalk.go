package baselines

import (
	"fmt"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
)

// RandomWalk estimates a user's preference for an item as the visit
// frequency of that item under short random walks on the user-item
// bipartite graph: user → observed item → co-consuming user → item → …
// Items reached through many short paths from like-minded users score
// high. The paper tunes a walk length and a reachability threshold; the
// threshold here prunes items reached fewer than MinVisits times, treating
// rarely-reached items as unreachable.
type RandomWalk struct {
	cfg   RandomWalkConfig
	data  *dataset.Dataset
	users [][]int32 // users observing each item (column index)
}

// RandomWalkConfig tunes the walker.
type RandomWalkConfig struct {
	// WalkLength is the number of user→item hops per walk (paper searches
	// {20, 40, 60, 80}).
	WalkLength int
	// NumWalks is the number of independent walks started per user.
	NumWalks int
	// MinVisits is the reachability threshold: items visited fewer times
	// score zero (paper searches {2, 5, 10, 20}).
	MinVisits int
	// Seed makes per-user scoring deterministic.
	Seed uint64
}

// DefaultRandomWalkConfig mirrors the paper's mid-range search values.
func DefaultRandomWalkConfig() RandomWalkConfig {
	return RandomWalkConfig{WalkLength: 40, NumWalks: 200, MinVisits: 2}
}

// NewRandomWalk builds an unfitted walker.
func NewRandomWalk(cfg RandomWalkConfig) (*RandomWalk, error) {
	if cfg.WalkLength < 1 {
		return nil, fmt.Errorf("baselines: WalkLength = %d, want >= 1", cfg.WalkLength)
	}
	if cfg.NumWalks < 1 {
		return nil, fmt.Errorf("baselines: NumWalks = %d, want >= 1", cfg.NumWalks)
	}
	if cfg.MinVisits < 0 {
		return nil, fmt.Errorf("baselines: MinVisits = %d, want >= 0", cfg.MinVisits)
	}
	return &RandomWalk{cfg: cfg}, nil
}

// Fit indexes the bipartite graph's item→users adjacency.
func (r *RandomWalk) Fit(train *dataset.Dataset) error {
	r.data = train
	r.users = make([][]int32, train.NumItems())
	train.ForEach(func(u, i int32) {
		r.users[i] = append(r.users[i], u)
	})
	return nil
}

// ScoreAll runs the walks for user u and writes visit counts (zeroed below
// the reachability threshold). The per-user RNG is derived from (Seed, u)
// so evaluation is reproducible regardless of user order.
func (r *RandomWalk) ScoreAll(u int32, out []float64) {
	for i := range out {
		out[i] = 0
	}
	obs := r.data.Positives(u)
	if len(obs) == 0 {
		return
	}
	rng := mathx.NewRNG(r.cfg.Seed ^ (uint64(u)+1)*0x9e3779b97f4a7c15)
	visits := make([]int, r.data.NumItems())
	for w := 0; w < r.cfg.NumWalks; w++ {
		cur := u
		for hop := 0; hop < r.cfg.WalkLength; hop++ {
			items := r.data.Positives(cur)
			if len(items) == 0 {
				break
			}
			it := items[rng.Intn(len(items))]
			visits[it]++
			watchers := r.users[it]
			cur = watchers[rng.Intn(len(watchers))]
		}
	}
	for i, v := range visits {
		if v >= r.cfg.MinVisits {
			out[i] = float64(v)
		}
	}
}
