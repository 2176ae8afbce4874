package neural

import (
	"fmt"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/sampling"
)

// NeuPR is the neural pairwise ranker of Song et al. (CIKM 2018, "Neural
// Collaborative Ranking"): instead of classifying single (u, i) cells it
// scores a pair of items for the same user and learns that observed items
// should out-score unobserved ones. Our instantiation shares one NeuMF-
// style scoring network s(u, i) across the pair and minimizes the pairwise
// logistic loss −ln σ(s(u,i) − s(u,j)).
//
// Substitution note: the original paper's "no negative sampler" refers to
// its pairwise reformulation of NCF's pointwise classification; the
// unobserved side of each pair is still drawn from the unobserved set,
// which is what this implementation does (uniformly).
type NeuPR struct {
	cfg   NeuPRConfig
	user  *Embedding
	item  *Embedding
	tower *MLP

	concat []float64
}

// NeuPRConfig tunes the model.
type NeuPRConfig struct {
	Dim       int   // per-side embedding size
	Hidden    []int // tower widths after the 2·Dim input; last must be 1
	LearnRate float64
	Steps     int // sampled (u, i, j) updates
	// WeightDecay is decoupled L2 regularization applied by Adam; the
	// paper notes deep models overfit sparse implicit data, and without
	// this the pointwise models memorize the training matrix.
	WeightDecay float64
	Seed        uint64
}

// DefaultNeuPRConfig mirrors the four-layer setup of §6.3 with a step
// budget of 30 passes over the training pairs.
func DefaultNeuPRConfig(trainPairs int) NeuPRConfig {
	return NeuPRConfig{
		Dim:       8,
		Hidden:    []int{16, 8, 1},
		LearnRate: 0.001,
		Steps:     30 * trainPairs,
	}
}

// Validate reports the first problem with the configuration.
func (c NeuPRConfig) Validate() error {
	switch {
	case c.Dim <= 0:
		return fmt.Errorf("neural: NeuPR Dim = %d, want > 0", c.Dim)
	case len(c.Hidden) == 0 || c.Hidden[len(c.Hidden)-1] != 1:
		return fmt.Errorf("neural: NeuPR Hidden must end in width 1, got %v", c.Hidden)
	case c.LearnRate <= 0:
		return fmt.Errorf("neural: NeuPR LearnRate = %v, want > 0", c.LearnRate)
	case c.Steps < 0:
		return fmt.Errorf("neural: NeuPR Steps = %d, want >= 0", c.Steps)
	}
	return nil
}

// NewNeuPR validates the configuration.
func NewNeuPR(cfg NeuPRConfig) (*NeuPR, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &NeuPR{cfg: cfg}, nil
}

func (n *NeuPR) build(numUsers, numItems int, rng *mathx.RNG) error {
	n.user = NewEmbedding(numUsers, n.cfg.Dim)
	n.item = NewEmbedding(numItems, n.cfg.Dim)
	n.user.InitGaussian(rng, 0.05)
	n.item.InitGaussian(rng, 0.05)
	sizes := append([]int{2 * n.cfg.Dim}, n.cfg.Hidden...)
	tower, err := NewMLP(sizes, rng)
	if err != nil {
		return err
	}
	n.tower = tower
	n.concat = make([]float64, 2*n.cfg.Dim)
	return nil
}

// score runs the shared network for one (u, i) pair.
func (n *NeuPR) score(u, i int32) float64 {
	copy(n.concat, n.user.Row(u))
	copy(n.concat[n.cfg.Dim:], n.item.Row(i))
	return n.tower.Forward(n.concat)[0]
}

// backProp pushes dScore through the network into the embeddings.
func (n *NeuPR) backProp(u, i int32, dScore float64) {
	// Forward must be fresh for this pair: the tower caches activations.
	n.score(u, i)
	dConcat := n.tower.Backward([]float64{dScore})
	n.user.AccumGrad(u, dConcat[:n.cfg.Dim])
	n.item.AccumGrad(i, dConcat[n.cfg.Dim:])
}

// Fit trains on sampled (u, i⁺, j⁻) pairs with the pairwise logistic loss.
func (n *NeuPR) Fit(train *dataset.Dataset) error {
	rng := mathx.NewRNG(n.cfg.Seed)
	if err := n.build(train.NumUsers(), train.NumItems(), rng.Split()); err != nil {
		return err
	}
	var users []int32
	for _, u := range train.UsersWithAtLeast(1) {
		if train.NumPositives(u) < train.NumItems() {
			users = append(users, u)
		}
	}
	if len(users) == 0 {
		return fmt.Errorf("neural: NeuPR has no trainable users")
	}
	opt := DefaultAdam(n.cfg.LearnRate)
	opt.WeightDecay = n.cfg.WeightDecay
	for step := 0; step < n.cfg.Steps; step++ {
		u := users[rng.Intn(len(users))]
		obs := train.Positives(u)
		i := obs[rng.Intn(len(obs))]
		j := sampling.Unobserved(train, u, rng)

		diff := n.score(u, i) - n.score(u, j)
		g := mathx.Sigmoid(diff) - 1 // ∂(−ln σ(diff))/∂diff

		n.backProp(u, i, g)
		n.backProp(u, j, -g)

		for _, p := range n.tower.Params() {
			p.Step(opt)
		}
		n.user.Step(opt)
		n.item.Step(opt)
	}
	return nil
}

// ScoreAll implements eval.Scorer.
func (n *NeuPR) ScoreAll(u int32, out []float64) {
	for i := range out {
		out[i] = n.score(u, int32(i))
	}
}
