package baselines

import "clapf/internal/dataset"

// PopRank recommends items by training-set popularity — the paper's
// non-personalized floor. Every user receives the same ranking.
type PopRank struct {
	pop []float64
}

// NewPopRank returns an unfitted PopRank.
func NewPopRank() *PopRank { return &PopRank{} }

// Fit counts item occurrences in the training data.
func (p *PopRank) Fit(train *dataset.Dataset) error {
	counts := train.ItemPopularity()
	p.pop = make([]float64, len(counts))
	for i, c := range counts {
		p.pop[i] = float64(c)
	}
	return nil
}

// ScoreAll implements eval.Scorer; scores are identical across users.
func (p *PopRank) ScoreAll(_ int32, out []float64) {
	copy(out, p.pop)
}
