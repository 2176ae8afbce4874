package baselines

import (
	"fmt"

	"clapf/internal/core"
	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
)

// CLiMF is Collaborative Less-is-More Filtering (Shi et al., RecSys 2012):
// it directly maximizes the smoothed lower bound of Mean Reciprocal Rank
// (Eq. 7),
//
//	L(u) = Σ_{i∈I⁺} ln σ(f_ui) + Σ_{i,k∈I⁺} ln σ(f_ui − f_uk),
//
// by full-gradient ascent per user. The per-user gradient costs
// O((n_u⁺)²·d) — the quadratic blow-up that makes CLiMF the slowest method
// in the paper's Table 2 (it never finishes Flixter or Netflix within the
// 200-hour budget there, and the training-time columns of our benches show
// the same per-epoch gap).
type CLiMF struct {
	cfg   CLiMFConfig
	model *mf.Model
}

// CLiMFConfig tunes CLiMF.
type CLiMFConfig struct {
	Dim       int     // latent dimensionality (paper fixes 20)
	LearnRate float64 // paper searches {0.0001, 0.001, 0.01}
	Reg       float64 // paper searches {0.001, 0.01, 0.1}
	InitStd   float64
	Epochs    int // full passes over the users
	Seed      uint64
}

// DefaultCLiMFConfig mirrors the paper's mid-range search values.
func DefaultCLiMFConfig() CLiMFConfig {
	return CLiMFConfig{Dim: 20, LearnRate: 0.005, Reg: 0.01, InitStd: 0.1, Epochs: 60}
}

// NewCLiMF validates the configuration.
func NewCLiMF(cfg CLiMFConfig) (*CLiMF, error) {
	switch {
	case cfg.Dim <= 0:
		return nil, fmt.Errorf("baselines: CLiMF Dim = %d, want > 0", cfg.Dim)
	case cfg.LearnRate <= 0:
		return nil, fmt.Errorf("baselines: CLiMF LearnRate = %v, want > 0", cfg.LearnRate)
	case cfg.Reg < 0:
		return nil, fmt.Errorf("baselines: CLiMF Reg = %v, want >= 0", cfg.Reg)
	case cfg.Epochs < 1:
		return nil, fmt.Errorf("baselines: CLiMF Epochs = %d, want >= 1", cfg.Epochs)
	}
	return &CLiMF{cfg: cfg}, nil
}

// Model exposes the learned factors (nil before Fit).
func (c *CLiMF) Model() *mf.Model { return c.model }

// ScoreAll implements eval.Scorer.
func (c *CLiMF) ScoreAll(u int32, out []float64) { c.model.ScoreAll(u, out) }

// Fit runs full-gradient ascent. CLiMF's objective touches only the
// observed items — the limitation §3.3 calls out — so unobserved items are
// never updated except through regularization of touched vectors.
func (c *CLiMF) Fit(train *dataset.Dataset) error {
	rng := mathx.NewRNG(c.cfg.Seed)
	var err error
	// The original CLiMF model has no item bias.
	if c.model, err = core.NewModel(train, c.cfg.Dim, false, c.cfg.InitStd, rng.Split()); err != nil {
		return err
	}

	d := c.cfg.Dim
	gamma, reg := c.cfg.LearnRate, c.cfg.Reg
	uGrad := make([]float64, d)

	for epoch := 0; epoch < c.cfg.Epochs; epoch++ {
		for u := int32(0); u < int32(train.NumUsers()); u++ {
			obs := train.Positives(u)
			n := len(obs)
			if n == 0 {
				continue
			}
			uf := c.model.UserFactors(u)

			// Scores and per-item scalar gradients ∂L/∂f_i.
			scores := make([]float64, n)
			for a, it := range obs {
				scores[a] = c.model.Score(u, it)
			}
			fGrad := make([]float64, n)
			for a := 0; a < n; a++ {
				g := 1 - mathx.Sigmoid(scores[a])
				for b := 0; b < n; b++ {
					if b == a {
						continue
					}
					// d/df_a [ln σ(f_a − f_b) + ln σ(f_b − f_a)]
					g += mathx.Sigmoid(scores[b]-scores[a]) - mathx.Sigmoid(scores[a]-scores[b])
				}
				fGrad[a] = g
			}

			// Gradient ascent on U_u and each observed V_i.
			mathx.Fill(uGrad, 0)
			for a, it := range obs {
				vf := c.model.ItemFactors(it)
				mathx.AXPY(fGrad[a], vf, uGrad)
				for q := 0; q < d; q++ {
					vf[q] += gamma * (fGrad[a]*uf[q] - reg*vf[q])
				}
			}
			for q := 0; q < d; q++ {
				uf[q] += gamma * (uGrad[q] - reg*uf[q])
			}
		}
	}
	return nil
}
