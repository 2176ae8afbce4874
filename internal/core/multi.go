package core

import (
	"fmt"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/sampling"
)

// MultiTrainer implements CLAPF-Multi, an instantiation of the paper's
// closing invitation ("the CLAPF framework … is not limited to the
// instantiations in this paper"): it joins CLAPF-MAP's listwise pair with
// MPR's chain over two classes of unobserved items, optimizing
//
//	R = λ₁(f_uk − f_ui) + λ₂(f_ui − f_uv) + λ₃(f_uv − f_uj)
//
// with i, k observed, v a popularity-sampled unobserved item (plausibly
// seen-and-skipped), and j a uniformly unobserved item. λ₁ carries the
// listwise ordering, λ₂ the CLAPF pairwise term, λ₃ MPR's uncertain-vs-
// negative criterion. (λ₁, λ₂, λ₃) = (λ, 1−λ, 0) with v drawn uniformly
// recovers CLAPF-MAP; (0, ρ, 1−ρ) recovers MPR.
type MultiTrainer struct {
	cfg   MultiConfig
	data  *dataset.Dataset
	model *mf.Model
	kern  *Kernel
	rng   *mathx.RNG
	pairs []dataset.Interaction

	uniform *sampling.UniformPair
	popNeg  *sampling.PopNegative

	stepsDone int
}

// MultiConfig parameterizes CLAPF-Multi.
type MultiConfig struct {
	// Lambda1, Lambda2, Lambda3 weight the three ranking pairs; they must
	// be non-negative and sum to something positive (they are normalized
	// to sum to 1 at construction).
	Lambda1 float64
	Lambda2 float64
	Lambda3 float64

	LearnRate float64
	Reg       float64
	Dim       int
	InitStd   float64
	UseBias   bool
	Steps     int
	Seed      uint64
}

// DefaultMultiConfig returns an even three-way blend with the shared MF
// defaults.
func DefaultMultiConfig(trainPairs int) MultiConfig {
	return MultiConfig{
		Lambda1:   0.2,
		Lambda2:   0.5,
		Lambda3:   0.3,
		LearnRate: 0.05,
		Reg:       0.01,
		Dim:       20,
		InitStd:   0.1,
		UseBias:   true,
		Steps:     30 * trainPairs,
	}
}

// Validate reports the first problem with the configuration.
func (c MultiConfig) Validate() error {
	switch {
	case c.Lambda1 < 0 || c.Lambda2 < 0 || c.Lambda3 < 0:
		return fmt.Errorf("core: negative lambda in (%v, %v, %v)", c.Lambda1, c.Lambda2, c.Lambda3)
	case c.Lambda1+c.Lambda2+c.Lambda3 <= 0:
		return fmt.Errorf("core: lambdas sum to zero")
	case c.LearnRate <= 0:
		return fmt.Errorf("core: LearnRate = %v, want > 0", c.LearnRate)
	case c.Reg < 0:
		return fmt.Errorf("core: Reg = %v, want >= 0", c.Reg)
	case c.Dim <= 0:
		return fmt.Errorf("core: Dim = %d, want > 0", c.Dim)
	case c.InitStd < 0:
		return fmt.Errorf("core: InitStd = %v, want >= 0", c.InitStd)
	case c.Steps < 0:
		return fmt.Errorf("core: Steps = %d, want >= 0", c.Steps)
	}
	return nil
}

// NewMultiTrainer validates and prepares a CLAPF-Multi trainer. Lambdas are
// normalized to sum to 1.
func NewMultiTrainer(cfg MultiConfig, train *dataset.Dataset) (*MultiTrainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if train == nil {
		return nil, fmt.Errorf("core: nil training data")
	}
	sum := cfg.Lambda1 + cfg.Lambda2 + cfg.Lambda3
	cfg.Lambda1 /= sum
	cfg.Lambda2 /= sum
	cfg.Lambda3 /= sum

	// v and j must be distinct unobserved items.
	pairs, err := TrainableRecords(train, 2)
	if err != nil {
		return nil, fmt.Errorf("core: CLAPF-Multi: %w", err)
	}
	rng := mathx.NewRNG(cfg.Seed)
	model, err := NewModel(train, cfg.Dim, cfg.UseBias, cfg.InitStd, rng.Split())
	if err != nil {
		return nil, err
	}
	popNeg, err := sampling.NewPopNegative(train, rng.Split())
	if err != nil {
		return nil, err
	}
	return &MultiTrainer{
		cfg:     cfg,
		data:    train,
		model:   model,
		kern:    NewKernel(model, Plain),
		rng:     rng,
		pairs:   pairs,
		uniform: sampling.NewUniformPair(train, rng.Split()),
		popNeg:  popNeg,
	}, nil
}

// Model returns the live model; it satisfies eval.Scorer.
func (t *MultiTrainer) Model() *mf.Model { return t.model }

// StepsDone returns the number of SGD updates applied so far.
func (t *MultiTrainer) StepsDone() int { return t.stepsDone }

// Run performs all remaining configured steps.
func (t *MultiTrainer) Run() {
	t.RunSteps(t.cfg.Steps - t.stepsDone)
}

// RunSteps performs n SGD updates.
func (t *MultiTrainer) RunSteps(n int) {
	for s := 0; s < n; s++ {
		t.Step()
	}
}

// Step samples one (u, i, k, v, j) case and applies one minimization
// step on −ln σ(R) + reg.
func (t *MultiTrainer) Step() {
	rec := t.pairs[t.rng.Intn(len(t.pairs))]
	u, i := rec.User, rec.Item

	obs := t.data.Positives(u)
	k := i
	if len(obs) > 1 {
		for k == i {
			k = obs[t.rng.Intn(len(obs))]
		}
	}
	j := t.uniform.SampleNegative(u)
	v := t.popNeg.Sample(u)
	for v == j {
		v = t.popNeg.Sample(u)
	}

	// R = a·f_ui + b·f_uk + c·f_uv + e·f_uj with a = λ₂−λ₁, b = λ₁,
	// c = λ₃−λ₂, e = −λ₃.
	l1, l2, l3 := t.cfg.Lambda1, t.cfg.Lambda2, t.cfg.Lambda3
	a, b := l2-l1, l1
	if k == i {
		a, b = a+b, 0 // single-positive degenerate case, as in CLAPF
	}
	reg := t.cfg.Reg
	t.kern.Step(u, []int32{i, k, v, j}, []float64{a, b, l3 - l2, -l3},
		Rates{Learn: t.cfg.LearnRate, RegUser: reg, RegItem: reg, RegBias: reg})
	t.stepsDone++
}
