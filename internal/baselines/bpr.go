package baselines

import (
	"fmt"

	"clapf/internal/core"
	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/sampling"
)

// BPRSampler selects BPR's negative-sampling scheme.
type BPRSampler int

const (
	// BPRUniform is the original uniform negative sampler.
	BPRUniform BPRSampler = iota
	// BPRDNS uses dynamic negative sampling (hardest of several uniform
	// candidates).
	BPRDNS
	// BPRAoBPR uses adaptive oversampling (Rendle & Freudenthaler 2014):
	// factor-ranked geometric negatives, the sampler DSS generalizes.
	BPRAoBPR
	// BPRABS approximates alpha-beta sampling (Cheng et al. 2019):
	// screen several candidate pairs and train on the most misranked.
	BPRABS
)

// BPR is Bayesian Personalized Ranking (Rendle et al. 2009): SGD over
// (observed, unobserved) pairs maximizing Σ ln σ(f_ui − f_uj) — the
// seminal pairwise method and the λ = 0 reduction of CLAPF.
type BPR struct {
	cfg   BPRConfig
	model *mf.Model
}

// BPRConfig tunes BPR.
type BPRConfig struct {
	Dim       int
	LearnRate float64
	Reg       float64 // shared α for user factors, item factors, and biases
	InitStd   float64
	UseBias   bool
	Steps     int
	Sampler   BPRSampler
	// DNSCandidates is the candidate count when Sampler is BPRDNS.
	DNSCandidates int
	Seed          uint64
}

// DefaultBPRConfig returns the paper-style configuration: d = 20 and a
// step budget of 30 passes over the training pairs.
func DefaultBPRConfig(trainPairs int) BPRConfig {
	return BPRConfig{
		Dim:       20,
		LearnRate: 0.05,
		Reg:       0.01,
		InitStd:   0.1,
		UseBias:   true,
		Steps:     30 * trainPairs,
	}
}

// NewBPR validates the configuration.
func NewBPR(cfg BPRConfig) (*BPR, error) {
	switch {
	case cfg.Dim <= 0:
		return nil, fmt.Errorf("baselines: BPR Dim = %d, want > 0", cfg.Dim)
	case cfg.LearnRate <= 0:
		return nil, fmt.Errorf("baselines: BPR LearnRate = %v, want > 0", cfg.LearnRate)
	case cfg.Reg < 0:
		return nil, fmt.Errorf("baselines: BPR Reg = %v, want >= 0", cfg.Reg)
	case cfg.Steps < 0:
		return nil, fmt.Errorf("baselines: BPR Steps = %d, want >= 0", cfg.Steps)
	case (cfg.Sampler == BPRDNS || cfg.Sampler == BPRABS) && cfg.DNSCandidates < 1:
		return nil, fmt.Errorf("baselines: BPR DNS/ABS needs DNSCandidates >= 1")
	}
	return &BPR{cfg: cfg}, nil
}

// Name implements Recommender.
func (b *BPR) Name() string {
	switch b.cfg.Sampler {
	case BPRDNS:
		return "BPR-DNS"
	case BPRAoBPR:
		return "BPR-AoBPR"
	case BPRABS:
		return "BPR-ABS"
	default:
		return "BPR"
	}
}

// Model exposes the learned factors (nil before Fit).
func (b *BPR) Model() *mf.Model { return b.model }

// ScoreAll implements Recommender.
func (b *BPR) ScoreAll(u int32, out []float64) { b.model.ScoreAll(u, out) }

// Fit runs the SGD loop.
func (b *BPR) Fit(train *dataset.Dataset) error {
	rng := mathx.NewRNG(b.cfg.Seed)
	var err error
	if b.model, err = core.NewModel(train, b.cfg.Dim, b.cfg.UseBias, b.cfg.InitStd, rng.Split()); err != nil {
		return err
	}
	// Pair-uniform SGD: each step draws one observed record uniformly, as
	// in the reference implementation; only users who observed the whole
	// catalog are excluded.
	pairs, err := core.TrainableRecords(train, 1)
	if err != nil {
		return fmt.Errorf("baselines: BPR: %w", err)
	}

	var negative func(u int32) int32
	switch b.cfg.Sampler {
	case BPRUniform:
		uniform := sampling.NewUniformPair(train, rng.Split())
		negative = uniform.SampleNegative
	case BPRDNS:
		s, err := sampling.NewDNSPair(train, b.model, rng.Split(), b.cfg.DNSCandidates)
		if err != nil {
			return err
		}
		negative = s.SampleNegative
	case BPRAoBPR:
		s, err := sampling.NewAoBPRPair(train, b.model, rng.Split(), 0)
		if err != nil {
			return err
		}
		negative = s.SampleNegative
	case BPRABS:
		s, err := sampling.NewABSPair(train, b.model, rng.Split(), b.cfg.DNSCandidates, 0)
		if err != nil {
			return err
		}
		// ABS screens whole pairs; adapt it to the pair-uniform loop by
		// letting it choose the negative for the drawn positive.
		negative = func(u int32) int32 { return s.SamplePair(u).J }
	default:
		return fmt.Errorf("baselines: unknown BPR sampler %d", b.cfg.Sampler)
	}

	// BPR's risk x = f_ui − f_uj is CLAPF's at λ = 0: the coefficient
	// vector (1, −1) over (i, j).
	coef := []float64{1, -1}
	rates := core.Rates{Learn: b.cfg.LearnRate, RegUser: b.cfg.Reg, RegItem: b.cfg.Reg, RegBias: b.cfg.Reg}
	kern := core.NewKernel(b.model, core.Plain)
	for step := 0; step < b.cfg.Steps; step++ {
		rec := pairs[rng.Intn(len(pairs))]
		kern.Step(rec.User, []int32{rec.Item, negative(rec.User)}, coef, rates)
	}
	return nil
}
