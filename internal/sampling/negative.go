package sampling

import (
	"fmt"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
)

// Negatives selects how BPR's unobserved item j is drawn for a training
// record (u, i): the original sampler and §2.1's improved-sampler class.
type Negatives int

const (
	// UniformNegatives is the classic BPR sampler: j uniform over the
	// unobserved items.
	UniformNegatives Negatives = iota
	// DNSNegatives is Dynamic Negative Sampling (Zhang et al., SIGIR
	// 2013): draw several unobserved items uniformly and keep the one the
	// current model scores highest — the hardest of the candidate set.
	DNSNegatives
	// AoBPRNegatives is Adaptive Oversampling (Rendle & Freudenthaler,
	// WSDM 2014), the sampler DSS generalizes: pick a random factor q,
	// apply the sign test on U_{u,q}, and geometric-sample the top of the
	// factor-q item ranking — DSS's negative half without the positive one.
	AoBPRNegatives
	// ABSNegatives approximates Alpha-Beta Sampling (Cheng et al., ICDM
	// 2019), which concentrates training on misranked pairs: screen
	// several uniform candidates against the record's positive, keep the
	// one with the smallest margin f_ui − f_uj, and accept at once a
	// candidate the model already ranks above i.
	ABSNegatives
)

// Check reports whether the scheme is known and, for the two that screen
// candidates, whether there is at least one to screen.
func (n Negatives) Check(candidates int) error {
	switch n {
	case UniformNegatives, AoBPRNegatives:
	case DNSNegatives, ABSNegatives:
		if candidates < 1 {
			return fmt.Errorf("sampling: DNS/ABS candidates = %d, want >= 1", candidates)
		}
	default:
		return fmt.Errorf("sampling: unknown negative sampler %d", int(n))
	}
	return nil
}

// NegativeSampler draws BPR negatives. It is a TripleSampler that never
// draws k: the embedded sampler carries the stream, its resumable state
// and — for AoBPR — the factor rank lists with their refresh schedule, so
// everything a trainer asks of a triple sampler holds for this one too.
type NegativeSampler struct {
	*TripleSampler
	scheme     Negatives
	candidates int
}

// NewNegativeSampler builds the sampler over the training data. model is
// the live model DNS, ABS and AoBPR score candidates with; Uniform
// accepts nil.
func NewNegativeSampler(scheme Negatives, candidates int, data *dataset.Dataset, model *mf.Model, rng *mathx.RNG) (*NegativeSampler, error) {
	if err := scheme.Check(candidates); err != nil {
		return nil, err
	}
	if scheme != UniformNegatives && model == nil {
		return nil, fmt.Errorf("sampling: negative sampler %d needs a model", int(scheme))
	}
	var cfg TripleConfig
	if scheme == AoBPRNegatives {
		cfg.Strategy = NegativeOnly
	}
	ts, err := NewTripleSampler(cfg, data, model, rng)
	if err != nil {
		return nil, err
	}
	return &NegativeSampler{TripleSampler: ts, scheme: scheme, candidates: candidates}, nil
}

// Sample draws the unobserved item for the record (u, i).
func (s *NegativeSampler) Sample(u, i int32) int32 {
	switch s.scheme {
	case AoBPRNegatives:
		// The NegativeOnly triple also carries a uniform k, drawn against
		// the user's first item and discarded: a few wasted RNG calls that
		// the pinned BPR-AoBPR trajectory has always made.
		return s.SampleWithI(u, s.data.Positives(u)[0]).J
	case DNSNegatives, ABSNegatives:
		// With i fixed, the smallest margin f_ui − f_uj is the highest
		// f_uj: ABS is DNS that stops at the first misranked candidate.
		abs := s.scheme == ABSNegatives
		var fi float64
		if abs {
			fi = s.model.Score(u, i)
		}
		best := Unobserved(s.data, u, s.rng)
		bestScore := s.model.Score(u, best)
		for c := 1; c < s.candidates && !(abs && fi-bestScore < 0); c++ {
			j := Unobserved(s.data, u, s.rng)
			if sc := s.model.Score(u, j); sc > bestScore {
				best, bestScore = j, sc
			}
		}
		return best
	}
	return Unobserved(s.data, u, s.rng)
}

// PopNegative draws unobserved items with probability proportional to
// global item popularity. MPR uses it to build its intermediate item class:
// a popular-but-unobserved item is plausibly seen-and-skipped, so it should
// rank between the observed items and the uniformly unobserved ones.
type PopNegative struct {
	data  *dataset.Dataset
	rng   *mathx.RNG
	alias *Alias
}

// NewPopNegative builds the popularity-weighted negative sampler with
// add-one smoothing so zero-popularity items stay reachable.
func NewPopNegative(data *dataset.Dataset, rng *mathx.RNG) (*PopNegative, error) {
	pop := data.ItemPopularity()
	weights := make([]float64, len(pop))
	for i, c := range pop {
		weights[i] = float64(c) + 1
	}
	alias, err := NewAlias(weights)
	if err != nil {
		return nil, err
	}
	return &PopNegative{data: data, rng: rng, alias: alias}, nil
}

// Sample draws a popularity-weighted item unobserved by u.
func (s *PopNegative) Sample(u int32) int32 {
	for tries := 0; tries < 64; tries++ {
		j := s.alias.Sample(s.rng)
		if !s.data.IsPositive(u, j) {
			return j
		}
	}
	return Unobserved(s.data, u, s.rng)
}
