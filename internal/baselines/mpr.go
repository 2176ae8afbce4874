package baselines

import (
	"fmt"

	"clapf/internal/core"
	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/sampling"
)

// MPR is Multiple Pairwise Ranking (Yu et al., CIKM 2018): it relaxes
// BPR's single pairwise assumption into a chain of criteria over three item
// classes. The original uses auxiliary view data to form the middle class
// (viewed-but-not-purchased); on pure implicit feedback — the setting of
// the CLAPF paper's experiments — the middle class is approximated by
// *popular-but-unobserved* items, which a user has plausibly seen and
// skipped. The objective joins the two pairs as
//
//	ln σ(ρ(f_ui − f_uv) + (1 − ρ)(f_uv − f_uj))
//
// with i observed, v popularity-sampled unobserved, j uniformly unobserved.
type MPR struct {
	cfg   MPRConfig
	model *mf.Model
}

// MPRConfig tunes MPR.
type MPRConfig struct {
	Dim       int
	LearnRate float64
	Reg       float64
	InitStd   float64
	UseBias   bool
	Steps     int
	// Rho is MPR's trade-off between the (i ≻ v) and (v ≻ j) criteria
	// (the original paper searches {0.0, 0.1, …, 1.0}).
	Rho  float64
	Seed uint64
}

// DefaultMPRConfig mirrors DefaultBPRConfig with the paper's mid trade-off.
func DefaultMPRConfig(trainPairs int) MPRConfig {
	return MPRConfig{
		Dim:       20,
		LearnRate: 0.05,
		Reg:       0.01,
		InitStd:   0.1,
		UseBias:   true,
		Steps:     30 * trainPairs,
		Rho:       0.6,
	}
}

// NewMPR validates the configuration.
func NewMPR(cfg MPRConfig) (*MPR, error) {
	switch {
	case cfg.Dim <= 0:
		return nil, fmt.Errorf("baselines: MPR Dim = %d, want > 0", cfg.Dim)
	case cfg.LearnRate <= 0:
		return nil, fmt.Errorf("baselines: MPR LearnRate = %v, want > 0", cfg.LearnRate)
	case cfg.Reg < 0:
		return nil, fmt.Errorf("baselines: MPR Reg = %v, want >= 0", cfg.Reg)
	case cfg.Rho < 0 || cfg.Rho > 1:
		return nil, fmt.Errorf("baselines: MPR Rho = %v, want [0,1]", cfg.Rho)
	case cfg.Steps < 0:
		return nil, fmt.Errorf("baselines: MPR Steps = %d, want >= 0", cfg.Steps)
	}
	return &MPR{cfg: cfg}, nil
}

// Name implements Recommender.
func (m *MPR) Name() string { return "MPR" }

// Model exposes the learned factors (nil before Fit).
func (m *MPR) Model() *mf.Model { return m.model }

// ScoreAll implements Recommender.
func (m *MPR) ScoreAll(u int32, out []float64) { m.model.ScoreAll(u, out) }

// Fit runs the SGD loop over (i, v, j) triples.
func (m *MPR) Fit(train *dataset.Dataset) error {
	rng := mathx.NewRNG(m.cfg.Seed)
	var err error
	if m.model, err = core.NewModel(train, m.cfg.Dim, m.cfg.UseBias, m.cfg.InitStd, rng.Split()); err != nil {
		return err
	}
	// Pair-uniform SGD over observed records; users need two unobserved
	// items so the middle item v and the negative j can differ.
	pairs, err := core.TrainableRecords(train, 2)
	if err != nil {
		return fmt.Errorf("baselines: MPR: %w", err)
	}

	uniform := sampling.NewUniformPair(train, rng.Split())
	popNeg, err := sampling.NewPopNegative(train, rng.Split())
	if err != nil {
		return err
	}

	// R = ρ(f_ui − f_uv) + (1−ρ)(f_uv − f_uj); writing it as
	// a·f_ui + b·f_uv + c·f_uj gives a = ρ, b = 1−2ρ, c = −(1−ρ).
	rho, reg := m.cfg.Rho, m.cfg.Reg
	coef := []float64{rho, 1 - 2*rho, -(1 - rho)}
	rates := core.Rates{Learn: m.cfg.LearnRate, RegUser: reg, RegItem: reg, RegBias: reg}
	kern := core.NewKernel(m.model, core.Plain)
	for step := 0; step < m.cfg.Steps; step++ {
		rec := pairs[rng.Intn(len(pairs))]
		j := uniform.SampleNegative(rec.User)
		v := popNeg.Sample(rec.User)
		for v == j { // the two negatives must differ
			v = popNeg.Sample(rec.User)
		}
		kern.Step(rec.User, []int32{rec.Item, v, j}, coef, rates)
	}
	return nil
}
