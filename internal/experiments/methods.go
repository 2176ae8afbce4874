// Package experiments is the reproduction harness: it wires datasets,
// methods, and metrics into the exact experiments of the paper's §6 —
// Table 1 (dataset stats), Table 2 (method comparison), Figure 2 (top-k
// sweep), Figure 3 (λ trade-off), and Figure 4 (sampler convergence) — and
// renders them as aligned text tables or CSV.
package experiments

import (
	"fmt"
	"time"

	"clapf/internal/baselines"
	"clapf/internal/core"
	"clapf/internal/dataset"
	"clapf/internal/eval"
	"clapf/internal/neural"
	"clapf/internal/sampling"
)

// Method is a named recommender constructor: Build must fit the model on
// the training split and return a scorer ready for evaluation.
type Method struct {
	Name  string
	Build func(train *dataset.Dataset, seed uint64) (eval.Scorer, error)
}

// lambdas holds the per-dataset trade-off values reported in Table 2 of
// the paper (e.g. "CLAPF (λ = 0.4) -MAP" on ML100K).
type lambdas struct{ MAP, MRR float64 }

var paperLambdas = map[string]lambdas{
	"ML100K":  {MAP: 0.4, MRR: 0.2},
	"ML1M":    {MAP: 0.4, MRR: 0.8},
	"UserTag": {MAP: 0.3, MRR: 0.2},
	"ML20M":   {MAP: 0.3, MRR: 0.9},
	"Flixter": {MAP: 0.3, MRR: 0.2},
	"Netflix": {MAP: 0.3, MRR: 0.2},
}

// LambdaFor returns the paper's tuned λ for the dataset and variant,
// falling back to 0.3 for unknown dataset names.
func LambdaFor(datasetName string, variant sampling.Objective) float64 {
	l, ok := paperLambdas[datasetName]
	if !ok {
		return 0.3
	}
	if variant == sampling.MRR {
		return l.MRR
	}
	return l.MAP
}

// BudgetConfig scales every iterative method's work so the whole Table 2
// column regenerates in minutes on one core while preserving relative
// training-time ratios.
type BudgetConfig struct {
	// EpochEquivalents is the number of passes over the training pairs
	// granted to each MF-based SGD method. The paper searches step
	// budgets up to 100k iterations; our synthetic worlds need ~200+
	// passes for the SGD rankers to converge (WMF's ALS converges in a
	// handful of sweeps regardless).
	EpochEquivalents int
	// CLiMFEpochs bounds CLiMF's full-gradient passes.
	CLiMFEpochs int
	// NeuralEpochs bounds the neural models' passes (they cost ~100× an
	// MF pass per example, and §6.4.1 notes they overfit long before MF
	// budgets anyway).
	NeuralEpochs int
	// WMFSweeps bounds ALS sweeps.
	WMFSweeps int
	// RandomWalkWalks is the per-user walk count for RandomWalk.
	RandomWalkWalks int
}

// DefaultBudget returns the standard benchmark budget.
func DefaultBudget() BudgetConfig {
	return BudgetConfig{
		EpochEquivalents: 240,
		CLiMFEpochs:      60,
		NeuralEpochs:     8,
		WMFSweeps:        10,
		RandomWalkWalks:  100,
	}
}

// trainerMethod builds one row trained by core.Trainer — every SGD method
// with a linear risk: the shared MF defaults, the budget's step count,
// and whatever configure sets (an objective, or CLAPF's own knobs).
func trainerMethod(name string, budget BudgetConfig, configure func(cfg *core.Config)) Method {
	return Method{
		Name: name,
		Build: func(train *dataset.Dataset, seed uint64) (eval.Scorer, error) {
			cfg := core.DefaultConfig(sampling.MAP, train.NumPairs())
			cfg.Steps = budget.EpochEquivalents * train.NumPairs()
			cfg.Seed = seed
			configure(&cfg)
			tr, err := core.NewTrainer(cfg, train)
			if err != nil {
				return nil, err
			}
			tr.Run()
			return tr.Model(), nil
		},
	}
}

// clapfMethod builds one CLAPF variant.
func clapfMethod(name string, variant sampling.Objective, strategy sampling.Strategy, lambda float64, budget BudgetConfig) Method {
	return trainerMethod(name, budget, func(cfg *core.Config) {
		cfg.Variant, cfg.Lambda, cfg.Sampler.Strategy = variant, lambda, strategy
	})
}

// fitScorer is a model that can be fitted and then used as a scorer —
// every baseline in this repository.
type fitScorer interface {
	baselines.Fitter
	eval.Scorer
}

// fitterMethod adapts any baseline that is a Fitter and an eval.Scorer.
func fitterMethod(name string, mk func(train *dataset.Dataset, seed uint64) (fitScorer, error)) Method {
	return Method{
		Name: name,
		Build: func(train *dataset.Dataset, seed uint64) (eval.Scorer, error) {
			m, err := mk(train, seed)
			if err != nil {
				return nil, err
			}
			if err := m.Fit(train); err != nil {
				return nil, err
			}
			return m, nil
		},
	}
}

// Table2Methods returns the full method list of Table 2 in paper order —
// nine baselines plus the four CLAPF rows — configured for the given
// dataset (λ follows the paper's tuned values) and budget.
func Table2Methods(datasetName string, budget BudgetConfig) []Method {
	lamMAP := LambdaFor(datasetName, sampling.MAP)
	lamMRR := LambdaFor(datasetName, sampling.MRR)
	return []Method{
		fitterMethod("PopRank", func(_ *dataset.Dataset, _ uint64) (fitScorer, error) {
			return baselines.NewPopRank(), nil
		}),
		fitterMethod("RandomWalk", func(_ *dataset.Dataset, seed uint64) (fitScorer, error) {
			cfg := baselines.DefaultRandomWalkConfig()
			cfg.NumWalks = budget.RandomWalkWalks
			cfg.Seed = seed
			return baselines.NewRandomWalk(cfg)
		}),
		fitterMethod("WMF", func(_ *dataset.Dataset, seed uint64) (fitScorer, error) {
			cfg := baselines.DefaultWMFConfig()
			cfg.Sweeps = budget.WMFSweeps
			cfg.Seed = seed
			return baselines.NewWMF(cfg)
		}),
		trainerMethod("BPR", budget, func(cfg *core.Config) { cfg.Objective = core.BPR{} }),
		trainerMethod("MPR", budget, func(cfg *core.Config) { cfg.Objective = core.MPR{Rho: 0.6} }),
		fitterMethod("CLiMF", func(_ *dataset.Dataset, seed uint64) (fitScorer, error) {
			cfg := baselines.DefaultCLiMFConfig()
			cfg.Epochs = budget.CLiMFEpochs
			cfg.Seed = seed
			return baselines.NewCLiMF(cfg)
		}),
		fitterMethod("NeuMF", func(_ *dataset.Dataset, seed uint64) (fitScorer, error) {
			cfg := neural.DefaultNeuMFConfig()
			cfg.Epochs = budget.NeuralEpochs
			cfg.Seed = seed
			return neural.NewNeuMF(cfg)
		}),
		fitterMethod("NeuPR", func(train *dataset.Dataset, seed uint64) (fitScorer, error) {
			cfg := neural.DefaultNeuPRConfig(train.NumPairs())
			cfg.Steps = budget.NeuralEpochs * train.NumPairs()
			cfg.Seed = seed
			return neural.NewNeuPR(cfg)
		}),
		fitterMethod("DeepICF", func(_ *dataset.Dataset, seed uint64) (fitScorer, error) {
			cfg := neural.DefaultDeepICFConfig()
			cfg.Epochs = budget.NeuralEpochs
			cfg.Seed = seed
			return neural.NewDeepICF(cfg)
		}),
		clapfMethod(fmt.Sprintf("CLAPF(λ=%.1f)-MAP", lamMAP), sampling.MAP, sampling.Uniform, lamMAP, budget),
		clapfMethod(fmt.Sprintf("CLAPF(λ=%.1f)-MRR", lamMRR), sampling.MRR, sampling.Uniform, lamMRR, budget),
		clapfMethod(fmt.Sprintf("CLAPF+(λ=%.1f)-MAP", lamMAP), sampling.MAP, sampling.DSS, lamMAP, budget),
		clapfMethod(fmt.Sprintf("CLAPF+(λ=%.1f)-MRR", lamMRR), sampling.MRR, sampling.DSS, lamMRR, budget),
	}
}

// TimedResult is one method's evaluation plus its training wall-clock.
type TimedResult struct {
	Method string
	Result eval.Result
	Train  time.Duration
}
