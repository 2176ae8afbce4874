package neural

import (
	"fmt"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/sampling"
)

// NeuMF is the advanced NCF instantiation of He et al. (WWW 2017): a
// generalized matrix factorization (GMF) branch — the elementwise product
// of user and item embeddings — concatenated with a multi-layer perceptron
// branch over concatenated embeddings, projected to one logit and trained
// as pointwise binary classification with sampled negatives.
type NeuMF struct {
	cfg NeuMFConfig

	gmfUser *Embedding
	gmfItem *Embedding
	mlpUser *Embedding
	mlpItem *Embedding
	tower   *MLP
	out     *Dense // 1 × (gmfDim + towerOut)

	concat []float64 // tower input buffer
	final  []float64 // output-layer input buffer
}

// NeuMFConfig tunes the model. The paper's setup (§6.3) uses four MLP
// layers and searches embedding sizes {4, 8, 16, 32}.
type NeuMFConfig struct {
	GMFDim    int
	MLPDim    int   // per-side embedding for the MLP branch
	Hidden    []int // hidden widths after the 2·MLPDim input
	LearnRate float64
	NegRatio  int // negatives sampled per positive
	Epochs    int // passes over the positive pairs
	// WeightDecay is decoupled L2 regularization applied by Adam; the
	// paper notes deep models overfit sparse implicit data, and without
	// this the pointwise models memorize the training matrix.
	WeightDecay float64
	Seed        uint64
}

// DefaultNeuMFConfig mirrors the paper's mid-range choice: embedding 8,
// four-layer tower.
func DefaultNeuMFConfig() NeuMFConfig {
	return NeuMFConfig{
		GMFDim:    8,
		MLPDim:    8,
		Hidden:    []int{16, 8, 4},
		LearnRate: 0.001,
		NegRatio:  4,
		Epochs:    20,
	}
}

// Validate reports the first problem with the configuration.
func (c NeuMFConfig) Validate() error {
	switch {
	case c.GMFDim <= 0:
		return fmt.Errorf("neural: NeuMF GMFDim = %d, want > 0", c.GMFDim)
	case c.MLPDim <= 0:
		return fmt.Errorf("neural: NeuMF MLPDim = %d, want > 0", c.MLPDim)
	case len(c.Hidden) == 0:
		return fmt.Errorf("neural: NeuMF needs at least one hidden layer")
	case c.LearnRate <= 0:
		return fmt.Errorf("neural: NeuMF LearnRate = %v, want > 0", c.LearnRate)
	case c.NegRatio < 1:
		return fmt.Errorf("neural: NeuMF NegRatio = %d, want >= 1", c.NegRatio)
	case c.Epochs < 1:
		return fmt.Errorf("neural: NeuMF Epochs = %d, want >= 1", c.Epochs)
	}
	for _, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("neural: NeuMF hidden width %d, want > 0", h)
		}
	}
	return nil
}

// NewNeuMF validates the configuration; parameters are allocated at Fit
// time when the dataset dimensions are known.
func NewNeuMF(cfg NeuMFConfig) (*NeuMF, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &NeuMF{cfg: cfg}, nil
}

func (n *NeuMF) build(numUsers, numItems int, rng *mathx.RNG) error {
	c := n.cfg
	n.gmfUser = NewEmbedding(numUsers, c.GMFDim)
	n.gmfItem = NewEmbedding(numItems, c.GMFDim)
	n.mlpUser = NewEmbedding(numUsers, c.MLPDim)
	n.mlpItem = NewEmbedding(numItems, c.MLPDim)
	for _, e := range []*Embedding{n.gmfUser, n.gmfItem, n.mlpUser, n.mlpItem} {
		e.InitGaussian(rng, 0.05)
	}
	sizes := append([]int{2 * c.MLPDim}, c.Hidden...)
	tower, err := NewMLP(sizes, rng)
	if err != nil {
		return err
	}
	n.tower = tower
	n.out = NewDense(c.GMFDim+tower.OutDim(), 1, rng)
	n.concat = make([]float64, 2*c.MLPDim)
	n.final = make([]float64, c.GMFDim+tower.OutDim())
	return nil
}

// logit runs the forward pass for one (u, i) pair.
func (n *NeuMF) logit(u, i int32) float64 {
	pg, qg := n.gmfUser.Row(u), n.gmfItem.Row(i)
	for k := 0; k < n.cfg.GMFDim; k++ {
		n.final[k] = pg[k] * qg[k]
	}
	copy(n.concat, n.mlpUser.Row(u))
	copy(n.concat[n.cfg.MLPDim:], n.mlpItem.Row(i))
	h := n.tower.Forward(n.concat)
	copy(n.final[n.cfg.GMFDim:], h)
	return n.out.Forward(n.final)[0]
}

// trainStep runs forward + backward + optimizer for one labelled pair.
func (n *NeuMF) trainStep(u, i int32, label float64, opt AdamConfig) {
	z := n.logit(u, i)
	dz := mathx.Sigmoid(z) - label // ∂BCE/∂logit

	dFinal := n.out.Backward([]float64{dz})
	// GMF branch: d(p⊙q) flows to both embeddings.
	pg, qg := n.gmfUser.Row(u), n.gmfItem.Row(i)
	gdim := n.cfg.GMFDim
	gp := make([]float64, gdim)
	gq := make([]float64, gdim)
	for k := 0; k < gdim; k++ {
		gp[k] = dFinal[k] * qg[k]
		gq[k] = dFinal[k] * pg[k]
	}
	n.gmfUser.AccumGrad(u, gp)
	n.gmfItem.AccumGrad(i, gq)
	// MLP branch.
	dConcat := n.tower.Backward(dFinal[gdim:])
	n.mlpUser.AccumGrad(u, dConcat[:n.cfg.MLPDim])
	n.mlpItem.AccumGrad(i, dConcat[n.cfg.MLPDim:])

	for _, p := range n.denseParams() {
		p.Step(opt)
	}
	for _, e := range []*Embedding{n.gmfUser, n.gmfItem, n.mlpUser, n.mlpItem} {
		e.Step(opt)
	}
}

func (n *NeuMF) denseParams() []*Param {
	ps := n.tower.Params()
	return append(ps, n.out.Params()...)
}

// Fit trains with pointwise log loss: every observed pair is a positive
// example, paired with NegRatio uniformly sampled unobserved negatives.
func (n *NeuMF) Fit(train *dataset.Dataset) error {
	rng := mathx.NewRNG(n.cfg.Seed)
	if err := n.build(train.NumUsers(), train.NumItems(), rng.Split()); err != nil {
		return err
	}
	// A user who observed the whole catalog has no negative to pair with
	// and contributes no examples.
	pairs, err := sampling.TrainableRecords(train, 1)
	if err != nil {
		return fmt.Errorf("neural: NeuMF: %w", err)
	}
	opt := DefaultAdam(n.cfg.LearnRate)
	opt.WeightDecay = n.cfg.WeightDecay
	order := make([]int, len(pairs))
	for idx := range order {
		order[idx] = idx
	}
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, idx := range order {
			p := pairs[idx]
			n.trainStep(p.User, p.Item, 1, opt)
			for neg := 0; neg < n.cfg.NegRatio; neg++ {
				j := sampling.Unobserved(train, p.User, rng)
				n.trainStep(p.User, j, 0, opt)
			}
		}
	}
	return nil
}

// ScoreAll implements eval.Scorer: the predicted probability is monotone in
// the logit, so the raw logit ranks identically and avoids m sigmoid calls.
func (n *NeuMF) ScoreAll(u int32, out []float64) {
	for i := range out {
		out[i] = n.logit(u, int32(i))
	}
}
