package core

import (
	"fmt"
	"math"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/obs"
	"clapf/internal/sampling"
)

// Objective is the plug on the one trainer. Every objective trained here
// has a risk linear in the item scores, R = Σ_t c_t·f_ut, so the Eq. 22
// step (step.go) is the same for all of them and an objective only says
// which item rows a step touches and with which coefficients. The trainer
// asks nothing else of it, and never which objective it is running.
//
// The four in this file are the paper's CLAPF-MAP/MRR (Config's own
// Variant/Lambda/Sampler, used when Config.Objective is nil), BPR, MPR
// and CLAPF-Multi.
type Objective interface {
	// Validate reports the first problem with the objective's own
	// parameters; Config.Validate calls it.
	Validate() error
	// MinUnobserved is how many unobserved items a user needs for a step
	// to be drawable; users with fewer contribute no training records.
	MinUnobserved() int
	// Bind builds the objective's sampler over the training split and the
	// live model. root is the seed's stream after the model's split: Bind
	// splits its own streams off it in a fixed order and may keep root
	// itself, which the trainer goes on to draw records from.
	Bind(train *dataset.Dataset, model *mf.Model, root *mathx.RNG) (Sampler, error)
}

// Sampler is a bound objective: it turns a drawn record into a step, and
// carries what the trainer has always asked of sampling.TripleSampler.
type Sampler interface {
	// Draw fills items with the step's item rows for the record (u, i)
	// and returns their coefficient vector c; the step touches
	// items[:len(c)], at most maxStepItems (4) rows. The returned slice
	// is the sampler's own and must not be written.
	Draw(u, i int32, items []int32) (coef []float64)
	// State and Restore carry every stream the sampler owns, so a
	// restored Uniform run continues bit for bit. Whatever the sampler
	// derives from the live model it rebuilds itself, as it draws and on
	// Restore.
	State() sampling.SamplerState
	Restore(sampling.SamplerState) error
	// SetDrawHists attaches the rank-position histograms of
	// sampling.TripleSampler.SetDrawHists, where there are ranks.
	SetDrawHists(pos, neg *obs.Histogram)
}

// finite rejects NaN and ±Inf: NaN fails every ordered comparison, so a
// range check alone would wave it through to the update loop, and ±Inf
// passes a one-sided bound outright.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("core: %s = %v, want finite", name, v)
	}
	return nil
}

// clapf is the paper's objective, built from Config.Variant, Lambda and
// Sampler when Config.Objective is nil:
//
//	MAP: R = λ(f_uk − f_ui) + (1−λ)(f_ui − f_uj)
//	MRR: R = λ(f_ui − f_uk) + (1−λ)(f_ui − f_uj)
type clapf struct {
	variant sampling.Objective
	lambda  float64
	sampler sampling.TripleConfig
}

func (o clapf) Validate() error {
	if err := finite("Lambda", o.lambda); err != nil {
		return err
	}
	if o.lambda < 0 || o.lambda > 1 {
		return fmt.Errorf("core: Lambda = %v, want [0,1]", o.lambda)
	}
	return nil
}

// Users with a single observed item still train — the sampler returns
// k = i and the triple degenerates to a (1−λ)-scaled BPR pair — so on
// ultra-sparse corpora (Flixter's density is 0.02%) CLAPF sees every
// record BPR sees. Only users who observed the whole catalog are
// excluded (no negative to sample).
func (clapf) MinUnobserved() int { return 1 }

func (o clapf) Bind(train *dataset.Dataset, model *mf.Model, root *mathx.RNG) (Sampler, error) {
	cfg := o.sampler
	cfg.Objective = o.variant // the DSS direction always matches the loss
	ts, err := sampling.NewTripleSampler(cfg, train, model, root.Split())
	if err != nil {
		return nil, err
	}
	s := &clapfSampler{TripleSampler: ts}
	s.coef, s.folded = riskCoeffs(o.variant, o.lambda)
	return s, nil
}

// riskCoeffs returns the coefficient vector of the linearized risk
// R = a·f_ui + b·f_uk + c·f_uj for the given variant and λ,
//
//	MAP: a = 1−2λ, b = λ,  c = −(1−λ)
//	MRR: a = 1,    b = −λ, c = −(1−λ)
//
// and its folded form for when k aliases i — a single-positive user,
// whose listwise pair vanishes because f_uk = f_ui: b folds into a, so
// the aliased item vector is updated once with the combined coefficient
// and regularized once (the kernel does not write a zero-coefficient
// repeat), leaving R = (1−λ)(f_ui − f_uj).
func riskCoeffs(variant sampling.Objective, lam float64) (coef, folded [3]float64) {
	if variant == sampling.MRR {
		coef = [3]float64{1, -lam, -(1 - lam)}
	} else {
		coef = [3]float64{1 - 2*lam, lam, -(1 - lam)}
	}
	return coef, [3]float64{coef[0] + coef[1], 0, coef[2]}
}

type clapfSampler struct {
	*sampling.TripleSampler
	coef, folded [3]float64
}

func (s *clapfSampler) Draw(u, i int32, items []int32) []float64 {
	tr := s.SampleWithI(u, i)
	items[0], items[1], items[2] = tr.I, tr.K, tr.J
	if tr.K == tr.I {
		return s.folded[:]
	}
	return s.coef[:]
}

// BPR is Bayesian Personalized Ranking (Rendle et al. 2009), the seminal
// pairwise method and CLAPF's λ = 0 reduction: R = f_ui − f_uj over an
// (observed, unobserved) pair, with a choice of negative samplers.
type BPR struct {
	// Negatives selects how j is drawn.
	Negatives sampling.Negatives
	// Candidates is how many uniform candidates DNS and ABS screen per
	// step (the original papers use 5–10).
	Candidates int
}

var bprCoef = [2]float64{1, -1}

func (o BPR) Validate() error { return o.Negatives.Check(o.Candidates) }

func (BPR) MinUnobserved() int { return 1 }

func (o BPR) Bind(train *dataset.Dataset, model *mf.Model, root *mathx.RNG) (Sampler, error) {
	ns, err := sampling.NewNegativeSampler(o.Negatives, o.Candidates, train, model, root.Split())
	if err != nil {
		return nil, err
	}
	return bprSampler{ns}, nil
}

type bprSampler struct{ *sampling.NegativeSampler }

func (s bprSampler) Draw(u, i int32, items []int32) []float64 {
	items[0], items[1] = i, s.Sample(u, i)
	return bprCoef[:]
}

// MPR is Multiple Pairwise Ranking (Yu et al., CIKM 2018): it relaxes
// BPR's single pairwise assumption into a chain of criteria over three
// item classes. The original uses auxiliary view data to form the middle
// class (viewed-but-not-purchased); on pure implicit feedback — the
// setting of the CLAPF paper's experiments — the middle class is
// approximated by popular-but-unobserved items, which a user has
// plausibly seen and skipped:
//
//	R = ρ(f_ui − f_uv) + (1−ρ)(f_uv − f_uj)
//
// with i observed, v popularity-sampled unobserved, j uniformly
// unobserved.
type MPR struct {
	// Rho ∈ [0, 1] trades the (i ≻ v) criterion against (v ≻ j); the
	// original paper searches {0.0, 0.1, …, 1.0}.
	Rho float64
}

func (o MPR) Validate() error {
	if err := finite("Rho", o.Rho); err != nil {
		return err
	}
	if o.Rho < 0 || o.Rho > 1 {
		return fmt.Errorf("core: Rho = %v, want [0,1]", o.Rho)
	}
	return nil
}

// v and j must be distinct unobserved items.
func (MPR) MinUnobserved() int { return 2 }

func (o MPR) Bind(train *dataset.Dataset, _ *mf.Model, root *mathx.RNG) (Sampler, error) {
	uniform := root.Split()
	neg, err := newTwoNegatives(train, uniform, root.Split())
	if err != nil {
		return nil, err
	}
	// As a·f_ui + b·f_uv + c·f_uj: a = ρ, b = 1−2ρ, c = −(1−ρ).
	return &mprSampler{twoNegatives: neg, coef: [3]float64{o.Rho, 1 - 2*o.Rho, -(1 - o.Rho)}}, nil
}

type mprSampler struct {
	twoNegatives
	coef [3]float64
}

func (s *mprSampler) Draw(u, i int32, items []int32) []float64 {
	v, j := s.draw(u)
	items[0], items[1], items[2] = i, v, j
	return s.coef[:]
}

// Multi is CLAPF-Multi, an instantiation of the paper's closing
// invitation ("the CLAPF framework … is not limited to the instantiations
// in this paper"): it joins CLAPF-MAP's listwise pair with MPR's chain
// over two classes of unobserved items,
//
//	R = λ₁(f_uk − f_ui) + λ₂(f_ui − f_uv) + λ₃(f_uv − f_uj)
//
// with i, k observed, v a popularity-sampled unobserved item and j a
// uniformly unobserved one. λ₁ carries the listwise ordering, λ₂ the
// CLAPF pairwise term, λ₃ MPR's uncertain-vs-negative criterion.
// (λ₁, λ₂, λ₃) = (λ, 1−λ, 0) with v drawn uniformly recovers CLAPF-MAP;
// (0, ρ, 1−ρ) recovers MPR.
type Multi struct {
	// Lambda1, Lambda2, Lambda3 weight the three ranking pairs; they must
	// be non-negative and sum to something positive, and are normalized
	// to sum to 1 when the trainer is built.
	Lambda1, Lambda2, Lambda3 float64
}

// DefaultMulti returns the default three-way blend.
func DefaultMulti() Multi { return Multi{Lambda1: 0.2, Lambda2: 0.5, Lambda3: 0.3} }

func (o Multi) Validate() error {
	for n, l := range [...]float64{o.Lambda1, o.Lambda2, o.Lambda3} {
		if err := finite(fmt.Sprintf("Lambda%d", n+1), l); err != nil {
			return err
		}
	}
	switch {
	case o.Lambda1 < 0 || o.Lambda2 < 0 || o.Lambda3 < 0:
		return fmt.Errorf("core: negative lambda in (%v, %v, %v)", o.Lambda1, o.Lambda2, o.Lambda3)
	case o.Lambda1+o.Lambda2+o.Lambda3 <= 0:
		return fmt.Errorf("core: lambdas sum to zero")
	}
	return nil
}

// v and j must be distinct unobserved items.
func (Multi) MinUnobserved() int { return 2 }

func (o Multi) Bind(train *dataset.Dataset, _ *mf.Model, root *mathx.RNG) (Sampler, error) {
	popular := root.Split()
	neg, err := newTwoNegatives(train, root.Split(), popular)
	if err != nil {
		return nil, err
	}
	sum := o.Lambda1 + o.Lambda2 + o.Lambda3
	l1, l2, l3 := o.Lambda1/sum, o.Lambda2/sum, o.Lambda3/sum
	// As a·f_ui + b·f_uk + c·f_uv + e·f_uj: a = λ₂−λ₁, b = λ₁,
	// c = λ₃−λ₂, e = −λ₃; k = i folds b into a as in CLAPF.
	s := &multiSampler{twoNegatives: neg, kStream: root, coef: [4]float64{l2 - l1, l1, l3 - l2, -l3}}
	s.folded = [4]float64{s.coef[0] + s.coef[1], 0, s.coef[2], s.coef[3]}
	return s, nil
}

type multiSampler struct {
	twoNegatives
	// kStream draws k: the record stream, so k follows the record as it
	// always has.
	kStream      *mathx.RNG
	coef, folded [4]float64
}

func (s *multiSampler) Draw(u, i int32, items []int32) []float64 {
	k := sampling.OtherObserved(s.data.Positives(u), i, s.kStream)
	v, j := s.draw(u)
	items[0], items[1], items[2], items[3] = i, k, v, j
	if k == i {
		return s.folded[:]
	}
	return s.coef[:]
}

// twoNegatives draws the two unobserved items MPR and CLAPF-Multi rank
// below the observed ones — j uniformly, a distinct v by popularity — each
// from its own stream, and is everything but Draw of their samplers: two
// streams to checkpoint, nothing derived from the model.
type twoNegatives struct {
	data             *dataset.Dataset
	uniform, popular *mathx.RNG
	byPopularity     *sampling.PopNegative
}

func newTwoNegatives(train *dataset.Dataset, uniform, popular *mathx.RNG) (twoNegatives, error) {
	byPopularity, err := sampling.NewPopNegative(train, popular)
	return twoNegatives{train, uniform, popular, byPopularity}, err
}

func (s *twoNegatives) draw(u int32) (v, j int32) {
	j = sampling.Unobserved(s.data, u, s.uniform)
	v = s.byPopularity.Sample(u)
	for v == j {
		v = s.byPopularity.Sample(u)
	}
	return v, j
}

func (s *twoNegatives) State() sampling.SamplerState {
	return sampling.SamplerState{RNG: sampling.StreamWords(s.uniform, s.popular)}
}

func (s *twoNegatives) Restore(st sampling.SamplerState) error {
	return sampling.SetStreams(st.RNG, s.uniform, s.popular)
}

func (*twoNegatives) SetDrawHists(_, _ *obs.Histogram) {}
