package baselines

import (
	"fmt"

	"clapf/internal/core"
	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/sampling"
)

// GBPR is Group Bayesian Personalized Ranking (Pan & Chen, IJCAI 2013) —
// the §2.1 baseline that relaxes BPR's user-independence assumption. For
// each record (u, i) it samples a group G of other users who also observed
// i, blends the group's preference with the individual's,
//
//	ĝ_ui = ρ · (1/|G∪{u}|) Σ_{w∈G∪{u}} f_wi + (1−ρ) · f_ui,
//
// and maximizes ln σ(ĝ_ui − f_uj) against a uniform unobserved j. Gradients
// flow to every group member's factors, coupling like-minded users.
type GBPR struct {
	cfg   GBPRConfig
	model *mf.Model
}

// GBPRConfig tunes GBPR.
type GBPRConfig struct {
	Dim       int
	LearnRate float64
	Reg       float64
	InitStd   float64
	UseBias   bool
	Steps     int
	// Rho blends group and individual preference (original paper: 0.8).
	Rho float64
	// GroupSize is the number of co-consumers sampled per step (original
	// paper: 3, including u).
	GroupSize int
	Seed      uint64
}

// DefaultGBPRConfig mirrors the original paper's choices.
func DefaultGBPRConfig(trainPairs int) GBPRConfig {
	return GBPRConfig{
		Dim:       20,
		LearnRate: 0.05,
		Reg:       0.01,
		InitStd:   0.1,
		UseBias:   true,
		Steps:     30 * trainPairs,
		Rho:       0.8,
		GroupSize: 3,
	}
}

// NewGBPR validates the configuration.
func NewGBPR(cfg GBPRConfig) (*GBPR, error) {
	switch {
	case cfg.Dim <= 0:
		return nil, fmt.Errorf("baselines: GBPR Dim = %d, want > 0", cfg.Dim)
	case cfg.LearnRate <= 0:
		return nil, fmt.Errorf("baselines: GBPR LearnRate = %v, want > 0", cfg.LearnRate)
	case cfg.Reg < 0:
		return nil, fmt.Errorf("baselines: GBPR Reg = %v, want >= 0", cfg.Reg)
	case cfg.Rho < 0 || cfg.Rho > 1:
		return nil, fmt.Errorf("baselines: GBPR Rho = %v, want [0,1]", cfg.Rho)
	case cfg.GroupSize < 1:
		return nil, fmt.Errorf("baselines: GBPR GroupSize = %d, want >= 1", cfg.GroupSize)
	case cfg.Steps < 0:
		return nil, fmt.Errorf("baselines: GBPR Steps = %d, want >= 0", cfg.Steps)
	}
	return &GBPR{cfg: cfg}, nil
}

// Model exposes the learned factors (nil before Fit).
func (g *GBPR) Model() *mf.Model { return g.model }

// ScoreAll implements eval.Scorer.
func (g *GBPR) ScoreAll(u int32, out []float64) { g.model.ScoreAll(u, out) }

// Fit runs pair-uniform SGD with group-coupled updates.
func (g *GBPR) Fit(train *dataset.Dataset) error {
	rng := mathx.NewRNG(g.cfg.Seed)
	var err error
	if g.model, err = core.NewModel(train, g.cfg.Dim, g.cfg.UseBias, g.cfg.InitStd, rng.Split()); err != nil {
		return err
	}
	pairs, err := sampling.TrainableRecords(train, 1)
	if err != nil {
		return fmt.Errorf("baselines: GBPR: %w", err)
	}
	itemUsers := make([][]int32, train.NumItems())
	train.ForEach(func(u, i int32) {
		itemUsers[i] = append(itemUsers[i], u)
	})

	group := make([]int32, 0, g.cfg.GroupSize)
	for step := 0; step < g.cfg.Steps; step++ {
		rec := pairs[rng.Intn(len(pairs))]
		j := sampling.Unobserved(train, rec.User, rng)

		// Sample the group: u plus up to GroupSize−1 distinct co-consumers
		// of i. Duplicates are skipped rather than resampled — for niche
		// items the group is naturally small.
		group = group[:0]
		group = append(group, rec.User)
		watchers := itemUsers[rec.Item]
		for len(group) < g.cfg.GroupSize && len(group) < len(watchers) {
			w := watchers[rng.Intn(len(watchers))]
			dup := false
			for _, have := range group {
				if have == w {
					dup = true
					break
				}
			}
			if !dup {
				group = append(group, w)
			}
		}
		g.update(rec.User, rec.Item, j, group)
	}
	return nil
}

// update applies one SGD step on ĝ_ui − f_uj.
func (g *GBPR) update(u, i, j int32, group []int32) {
	rho := g.cfg.Rho
	vi := g.model.ItemFactors(i)
	vj := g.model.ItemFactors(j)
	uf := g.model.UserFactors(u)

	groupMean := 0.0
	for _, w := range group {
		groupMean += mathx.Dot(g.model.UserFactors(w), vi)
	}
	groupMean /= float64(len(group))
	fui := mathx.Dot(uf, vi)
	ghat := rho*(groupMean+g.model.Bias(i)) + (1-rho)*(fui+g.model.Bias(i))
	x := ghat - mathx.Dot(uf, vj) - g.model.Bias(j)
	grad := 1 - mathx.Sigmoid(x)

	gamma, reg := g.cfg.LearnRate, g.cfg.Reg
	d := g.model.Dim()
	// ∂ĝ/∂U_w = ρ/|G|·V_i (+ (1−ρ)·V_i for w = u); ∂x/∂U_u also −V_j.
	groupCoef := rho / float64(len(group))
	// Snapshot U_u so V_j's gradient is evaluated at the pre-update point.
	ufOld := mathx.CopyVec(uf)
	// Accumulate V_i's gradient before mutating user factors.
	viGrad := make([]float64, d)
	for _, w := range group {
		wf := g.model.UserFactors(w)
		coef := groupCoef
		if w == u {
			coef += 1 - rho
		}
		for q := 0; q < d; q++ {
			viGrad[q] += coef * wf[q]
		}
	}
	for _, w := range group {
		wf := g.model.UserFactors(w)
		coef := groupCoef
		if w == u {
			coef += 1 - rho
		}
		for q := 0; q < d; q++ {
			dw := grad*coef*vi[q] - reg*wf[q]
			if w == u {
				dw -= grad * vj[q] // the −f_uj half of x
			}
			wf[q] += gamma * dw
		}
	}
	for q := 0; q < d; q++ {
		vi[q] += gamma * (grad*viGrad[q] - reg*vi[q])
		vj[q] += gamma * (-grad*ufOld[q] - reg*vj[q])
	}
	if g.model.HasBias() {
		g.model.AddBias(i, gamma*(grad-reg*g.model.Bias(i)))
		g.model.AddBias(j, gamma*(-grad-reg*g.model.Bias(j)))
	}
}
