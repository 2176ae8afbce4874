package neural

import (
	"fmt"
	"math"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/sampling"
)

// DeepICF is the deep item-based CF model of Xue et al. (TOIS 2019): the
// prediction for (u, i) pools the pairwise interactions between the target
// item and the user's historical items,
//
//	x = |I_u \ {i}|^(−β) · Σ_{l ∈ I_u\{i}} (q_l ⊙ q_i),
//
// feeds x through an MLP to a logit, and trains pointwise with sampled
// negatives — the repository's representative pointwise neural baseline.
type DeepICF struct {
	cfg   DeepICFConfig
	item  *Embedding
	tower *MLP
	data  *dataset.Dataset

	pooled []float64
}

// DeepICFConfig tunes the model.
type DeepICFConfig struct {
	Dim       int     // item embedding size
	Hidden    []int   // tower widths after the Dim input; last must be 1
	Beta      float64 // pooling exponent β ∈ [0, 1]
	MaxHist   int     // cap on history items pooled per example (0 = all)
	LearnRate float64
	NegRatio  int
	Epochs    int
	// WeightDecay is decoupled L2 regularization applied by Adam; the
	// paper notes deep models overfit sparse implicit data, and without
	// this the pointwise models memorize the training matrix.
	WeightDecay float64
	Seed        uint64
}

// DefaultDeepICFConfig mirrors the paper's four-layer setup.
func DefaultDeepICFConfig() DeepICFConfig {
	return DeepICFConfig{
		Dim:       8,
		Hidden:    []int{16, 8, 1},
		Beta:      0.5,
		MaxHist:   32,
		LearnRate: 0.001,
		NegRatio:  4,
		Epochs:    20,
	}
}

// Validate reports the first problem with the configuration.
func (c DeepICFConfig) Validate() error {
	switch {
	case c.Dim <= 0:
		return fmt.Errorf("neural: DeepICF Dim = %d, want > 0", c.Dim)
	case len(c.Hidden) == 0 || c.Hidden[len(c.Hidden)-1] != 1:
		return fmt.Errorf("neural: DeepICF Hidden must end in width 1, got %v", c.Hidden)
	case c.Beta < 0 || c.Beta > 1:
		return fmt.Errorf("neural: DeepICF Beta = %v, want [0,1]", c.Beta)
	case c.MaxHist < 0:
		return fmt.Errorf("neural: DeepICF MaxHist = %d, want >= 0", c.MaxHist)
	case c.LearnRate <= 0:
		return fmt.Errorf("neural: DeepICF LearnRate = %v, want > 0", c.LearnRate)
	case c.NegRatio < 1:
		return fmt.Errorf("neural: DeepICF NegRatio = %d, want >= 1", c.NegRatio)
	case c.Epochs < 1:
		return fmt.Errorf("neural: DeepICF Epochs = %d, want >= 1", c.Epochs)
	}
	return nil
}

// NewDeepICF validates the configuration.
func NewDeepICF(cfg DeepICFConfig) (*DeepICF, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DeepICF{cfg: cfg}, nil
}

// history returns the items pooled for (u, target): the user's observed
// items excluding the target, capped at MaxHist by deterministic stride.
func (d *DeepICF) history(u, target int32) []int32 {
	obs := d.data.Positives(u)
	hist := make([]int32, 0, len(obs))
	for _, l := range obs {
		if l != target {
			hist = append(hist, l)
		}
	}
	if d.cfg.MaxHist > 0 && len(hist) > d.cfg.MaxHist {
		// Deterministic thinning keeps scoring reproducible.
		stride := float64(len(hist)) / float64(d.cfg.MaxHist)
		out := make([]int32, d.cfg.MaxHist)
		for k := range out {
			out[k] = hist[int(float64(k)*stride)]
		}
		hist = out
	}
	return hist
}

// pool computes x for (u, i) and returns the history used and the pooling
// coefficient.
func (d *DeepICF) pool(u, i int32) ([]int32, float64) {
	hist := d.history(u, i)
	mathx.Fill(d.pooled, 0)
	if len(hist) == 0 {
		return hist, 0
	}
	coeff := math.Pow(float64(len(hist)), -d.cfg.Beta)
	qi := d.item.Row(i)
	for _, l := range hist {
		ql := d.item.Row(l)
		for k := range d.pooled {
			d.pooled[k] += ql[k] * qi[k]
		}
	}
	mathx.Scale(coeff, d.pooled)
	return hist, coeff
}

// logit scores one (u, i) pair.
func (d *DeepICF) logit(u, i int32) float64 {
	d.pool(u, i)
	return d.tower.Forward(d.pooled)[0]
}

// trainStep runs one labelled example.
func (d *DeepICF) trainStep(u, i int32, label float64, opt AdamConfig) {
	hist, coeff := d.pool(u, i)
	z := d.tower.Forward(d.pooled)[0]
	dz := mathx.Sigmoid(z) - label
	dx := d.tower.Backward([]float64{dz})

	if len(hist) > 0 {
		qi := d.item.Row(i)
		// ∂x/∂q_i = coeff·Σ_l q_l ⊙ dx; ∂x/∂q_l = coeff·(q_i ⊙ dx).
		gi := make([]float64, d.cfg.Dim)
		gl := make([]float64, d.cfg.Dim)
		for _, l := range hist {
			ql := d.item.Row(l)
			for k := 0; k < d.cfg.Dim; k++ {
				gi[k] += coeff * dx[k] * ql[k]
				gl[k] = coeff * dx[k] * qi[k]
			}
			d.item.AccumGrad(l, gl)
		}
		d.item.AccumGrad(i, gi)
	}

	for _, p := range d.tower.Params() {
		p.Step(opt)
	}
	d.item.Step(opt)
}

// Fit trains pointwise with sampled negatives.
func (d *DeepICF) Fit(train *dataset.Dataset) error {
	rng := mathx.NewRNG(d.cfg.Seed)
	d.data = train
	d.item = NewEmbedding(train.NumItems(), d.cfg.Dim)
	d.item.InitGaussian(rng.Split(), 0.05)
	sizes := append([]int{d.cfg.Dim}, d.cfg.Hidden...)
	tower, err := NewMLP(sizes, rng.Split())
	if err != nil {
		return err
	}
	d.tower = tower
	d.pooled = make([]float64, d.cfg.Dim)

	// A user who observed the whole catalog has no negative to pair with
	// and contributes no examples.
	pairs, err := sampling.TrainableRecords(train, 1)
	if err != nil {
		return fmt.Errorf("neural: DeepICF: %w", err)
	}
	opt := DefaultAdam(d.cfg.LearnRate)
	opt.WeightDecay = d.cfg.WeightDecay
	order := make([]int, len(pairs))
	for idx := range order {
		order[idx] = idx
	}
	for epoch := 0; epoch < d.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, idx := range order {
			p := pairs[idx]
			d.trainStep(p.User, p.Item, 1, opt)
			for neg := 0; neg < d.cfg.NegRatio; neg++ {
				d.trainStep(p.User, sampling.Unobserved(train, p.User, rng), 0, opt)
			}
		}
	}
	return nil
}

// ScoreAll implements eval.Scorer.
func (d *DeepICF) ScoreAll(u int32, out []float64) {
	for i := range out {
		out[i] = d.logit(u, int32(i))
	}
}
