package sampling

import (
	"fmt"
	"sort"

	"clapf/internal/dataset"
	"clapf/internal/mathx"
	"clapf/internal/mf"
	"clapf/internal/obs"
)

// Strategy selects how the (k, j) pair of a CLAPF triple is drawn.
type Strategy int

const (
	// Uniform draws k and j with equal probabilities — the paper's
	// baseline sampler.
	Uniform Strategy = iota
	// DSS is the paper's Double Sampling Strategy: rank-aware geometric
	// draws for both k (from the observed items) and j (from the
	// unobserved items).
	DSS
	// PositiveOnly is the Figure 4 ablation: k as in DSS, j uniform.
	PositiveOnly
	// NegativeOnly is the Figure 4 ablation: j as in DSS, k uniform.
	NegativeOnly
)

// String returns the sampler's display name as used in Figure 4.
func (s Strategy) String() string {
	switch s {
	case Uniform:
		return "Uniform"
	case DSS:
		return "DSS"
	case PositiveOnly:
		return "Positive"
	case NegativeOnly:
		return "Negative"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Objective distinguishes CLAPF-MAP from CLAPF-MRR; DSS draws the observed
// item k from opposite ends of the ranking list in the two cases (§5.2,
// Step 4): for MAP a *low*-scored observed k makes the pair (k ≻ i)
// informative, for MRR a *high*-scored one does.
type Objective int

const (
	// MAP targets the smoothed Mean Average Precision objective.
	MAP Objective = iota
	// MRR targets the smoothed Mean Reciprocal Rank objective.
	MRR
)

// String returns "MAP" or "MRR".
func (o Objective) String() string {
	if o == MRR {
		return "MRR"
	}
	return "MAP"
}

// Triple is one sampled training case S = {i, k, j}.
type Triple struct {
	I int32 // observed item (uniform)
	K int32 // second observed item
	J int32 // unobserved item
}

// TripleConfig parameterizes a TripleSampler.
type TripleConfig struct {
	Strategy  Strategy
	Objective Objective
	// GeomP is the success probability of the geometric rank distribution;
	// 0 picks 5/m (mean rank ≈ m/5), concentrating draws in roughly the
	// top fifth of the list — aggressive enough to find hard samples,
	// mild enough not to fixate on the extreme head (which suppresses
	// popular items and costs accuracy).
	GeomP float64
	// RefreshEvery is the number of Sample calls between ranking-list
	// rebuilds; 0 picks m·⌈log₂ m⌉ steps, the paper's "every log(m)
	// iterations" with an iteration read as one pass over the items.
	RefreshEvery int
}

// TripleSampler draws CLAPF training triples for users. Rank-aware
// strategies keep per-factor item rankings that must be refreshed from the
// live model as it trains; the sampler does so transparently on its own
// schedule.
type TripleSampler struct {
	cfg   TripleConfig
	data  *dataset.Dataset
	model *mf.Model
	rng   *mathx.RNG

	steps  int
	geomP  float64
	orders [][]int32 // per-factor item ids, descending factor value
	pos    [][]int32 // per-factor position of each item in orders

	// sortedObs[q] holds every user's observed items ordered by their
	// factor-q ranking position, laid out CSR-style with obsOff giving
	// each user's slice. Precomputing this at Refresh makes rankedK a
	// constant-time lookup instead of a per-sample sort.
	sortedObs [][]int32
	obsOff    []int32

	// itemUsers is the item→observing-users CSR adjacency used to rebuild
	// sortedObs by a single ordered scatter pass per factor.
	itemUsers [][]int32
	fill      []int32 // per-user write cursor, reset per factor

	// Optional telemetry: rank positions drawn by the rank-aware
	// strategies for k (posHist) and j (negHist). Nil = off.
	posHist, negHist *obs.Histogram
}

// NewTripleSampler builds a sampler over the training data. model may be
// nil only for the Uniform strategy; rank-aware strategies score items with
// it.
func NewTripleSampler(cfg TripleConfig, data *dataset.Dataset, model *mf.Model, rng *mathx.RNG) (*TripleSampler, error) {
	if data == nil {
		return nil, fmt.Errorf("sampling: nil dataset")
	}
	if rng == nil {
		return nil, fmt.Errorf("sampling: nil rng")
	}
	needModel := cfg.Strategy != Uniform
	if needModel && model == nil {
		return nil, fmt.Errorf("sampling: strategy %v needs a model", cfg.Strategy)
	}
	m := data.NumItems()
	s := &TripleSampler{cfg: cfg, data: data, model: model, rng: rng}
	s.geomP = cfg.GeomP
	if s.geomP <= 0 {
		s.geomP = mathx.Clamp(5/float64(m), 1e-4, 1)
	} else if s.geomP > 1 {
		return nil, fmt.Errorf("sampling: GeomP = %v > 1", s.geomP)
	}
	if cfg.RefreshEvery == 0 {
		lg := 1
		for v := m; v > 1; v >>= 1 {
			lg++
		}
		s.cfg.RefreshEvery = m * lg
	} else if cfg.RefreshEvery < 0 {
		return nil, fmt.Errorf("sampling: RefreshEvery = %d < 0", cfg.RefreshEvery)
	}
	if needModel {
		s.Refresh()
	} else {
		s.cfg.RefreshEvery = 0 // no rank lists to rebuild
	}
	return s, nil
}

// Refresh rebuilds the per-factor ranking lists from the current model
// (§5.2, Step 2). Cost: d · m log m. A Uniform sampler has none and
// returns at once.
func (s *TripleSampler) Refresh() {
	if s.cfg.RefreshEvery == 0 {
		return
	}
	d := s.model.Dim()
	m := s.model.NumItems()
	if s.orders == nil {
		s.orders = make([][]int32, d)
		s.pos = make([][]int32, d)
		for q := 0; q < d; q++ {
			s.pos[q] = make([]int32, m)
		}
	}
	if s.obsOff == nil {
		nu := s.data.NumUsers()
		s.obsOff = make([]int32, nu+1)
		for u := 0; u < nu; u++ {
			s.obsOff[u+1] = s.obsOff[u] + int32(s.data.NumPositives(int32(u)))
		}
		s.sortedObs = make([][]int32, d)
		total := int(s.obsOff[nu])
		for q := 0; q < d; q++ {
			s.sortedObs[q] = make([]int32, total)
		}
		s.itemUsers = make([][]int32, m)
		s.data.ForEach(func(u, i int32) {
			s.itemUsers[i] = append(s.itemUsers[i], u)
		})
		s.fill = make([]int32, nu)
	}
	col := make([]float64, m)
	for q := 0; q < d; q++ {
		s.model.FactorColumn(q, col)
		s.orders[q] = argsortDesc(col)
		for p, it := range s.orders[q] {
			s.pos[q][it] = int32(p)
		}
		// Rebuild every user's rank-ordered observed list by scattering
		// the global order: walking items best-first and appending each
		// to its observers' segments yields all per-user lists already
		// sorted, in O(m + Σ n_u) with no comparison sort at all.
		copy(s.fill, s.obsOff[:len(s.fill)])
		dst := s.sortedObs[q]
		for _, it := range s.orders[q] {
			for _, u := range s.itemUsers[it] {
				dst[s.fill[u]] = it
				s.fill[u]++
			}
		}
	}
}

// argsortDesc returns item ids ordered by descending value.
func argsortDesc(xs []float64) []int32 {
	idx := make([]int32, len(xs))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(x, y int) bool {
		a, b := idx[x], idx[y]
		if xs[a] != xs[b] {
			return xs[a] > xs[b]
		}
		return a < b
	})
	return idx
}

// Sample draws the triple S = {i, k, j} for user u (§5.2 Steps 2–4),
// choosing i uniformly from the user's observed items. The user must have
// at least one observed and one unobserved item.
func (s *TripleSampler) Sample(u int32) Triple {
	obs := s.data.Positives(u)
	return s.SampleWithI(u, obs[s.rng.Intn(len(obs))])
}

// SampleWithI draws the (k, j) pair for a caller-chosen observed item i —
// the path used by pair-uniform SGD, where (u, i) is a uniformly sampled
// training record (§4.3: "randomly select a record").
func (s *TripleSampler) SampleWithI(u, i int32) Triple {
	s.steps++
	if s.cfg.RefreshEvery > 0 && s.steps%s.cfg.RefreshEvery == 0 {
		s.Refresh()
	}

	obs := s.data.Positives(u)

	var k, j int32
	switch s.cfg.Strategy {
	case Uniform:
		k = OtherObserved(obs, i, s.rng)
		j = Unobserved(s.data, u, s.rng)
	case DSS:
		q, descending := s.pickFactorList(u)
		k = s.rankedK(u, obs, i, q, descending)
		j = s.rankedJ(u, q, descending)
	case PositiveOnly:
		q, descending := s.pickFactorList(u)
		k = s.rankedK(u, obs, i, q, descending)
		j = Unobserved(s.data, u, s.rng)
	case NegativeOnly:
		q, descending := s.pickFactorList(u)
		k = OtherObserved(obs, i, s.rng)
		j = s.rankedJ(u, q, descending)
	default:
		panic(fmt.Sprintf("sampling: unknown strategy %v", s.cfg.Strategy))
	}
	return Triple{I: i, K: k, J: j}
}

// SamplerState captures a sampler's resumable state: the position of
// every generator it owns — four xoshiro256** words per stream, in the
// sampler's own fixed order — and the step counter that drives the
// rank-list refresh schedule. The rank lists themselves are not part of
// the state — they are derived from the model and rebuilt on Restore.
type SamplerState struct {
	RNG   []uint64
	Steps int
}

// StreamWords concatenates the state words of the given generators.
func StreamWords(rngs ...*mathx.RNG) []uint64 {
	words := make([]uint64, 0, 4*len(rngs))
	for _, r := range rngs {
		st := r.State()
		words = append(words, st[:]...)
	}
	return words
}

// SetStreams repositions the generators from words written by
// StreamWords for the same number of streams.
func SetStreams(words []uint64, rngs ...*mathx.RNG) error {
	if len(words) != 4*len(rngs) {
		return fmt.Errorf("sampling: sampler state has %d RNG words, want %d (%d stream(s))", len(words), 4*len(rngs), len(rngs))
	}
	for n, r := range rngs {
		r.SetState([4]uint64(words[4*n : 4*n+4]))
	}
	return nil
}

// State returns the sampler's resumable state for checkpointing.
func (s *TripleSampler) State() SamplerState {
	return SamplerState{RNG: StreamWords(s.rng), Steps: s.steps}
}

// Restore resumes the sampler from a captured state and rebuilds the
// rank-aware structures from the current model. For the Uniform strategy
// the continuation is bit-identical to the uninterrupted stream; for
// rank-aware strategies the refreshed lists reflect the restored model
// rather than the lists in memory at checkpoint time (see DESIGN.md).
func (s *TripleSampler) Restore(st SamplerState) error {
	if err := SetStreams(st.RNG, s.rng); err != nil {
		return err
	}
	s.steps = st.Steps
	s.Refresh()
	return nil
}

// SetDrawHists attaches optional histograms recording the geometric rank
// positions drawn by the rank-aware strategies — pos for the observed
// item k, neg for the unobserved item j. Position 0 is the end of the
// ranking list the draw targets (the head for MRR's k and for j, the
// tail for MAP's k), so a healthy DSS run shows head-heavy mass in both.
// Uniform draws have no rank meaning and are not recorded. Pass nils to
// detach. The histograms are observed from the training goroutine only.
func (s *TripleSampler) SetDrawHists(pos, neg *obs.Histogram) {
	s.posHist, s.negHist = pos, neg
}

// pickFactorList implements Steps 2–3: choose a random factor q and apply
// the sign test — a negative U_{u,q} reverses the ranking list.
func (s *TripleSampler) pickFactorList(u int32) (q int, descending bool) {
	q = s.rng.Intn(s.model.Dim())
	return q, s.model.UserFactor(u, q) >= 0
}

// TrainableRecords lists, in user-major order, every observed (u, i) of
// the users who have at least minUnobserved unobserved items left to
// sample negatives from. SGD draws training records uniformly from this
// list (§4.3: "randomly select a record"), so active users are visited
// in proportion to their history; users with a single observed item
// still train. An empty result is an error: nothing can be sampled.
func TrainableRecords(train *dataset.Dataset, minUnobserved int) ([]dataset.Interaction, error) {
	var pairs []dataset.Interaction
	train.ForEach(func(u, i int32) {
		if train.NumPositives(u)+minUnobserved <= train.NumItems() {
			pairs = append(pairs, dataset.Interaction{User: u, Item: i})
		}
	})
	if len(pairs) == 0 {
		return nil, fmt.Errorf("no trainable records (no user has %d unobserved item(s) left)", minUnobserved)
	}
	return pairs, nil
}

// OtherObserved draws uniformly from a user's observed items obs one that
// is not i; a single-positive user only has i.
func OtherObserved(obs []int32, i int32, rng *mathx.RNG) int32 {
	if len(obs) == 1 {
		return obs[0]
	}
	for {
		k := obs[rng.Intn(len(obs))]
		if k != i {
			return k
		}
	}
}

// Unobserved draws uniformly an item u has not observed, by rejection;
// the observed set is tiny relative to the catalog, so this terminates
// almost immediately. It is the one uniform negative draw of every
// sampler and baseline in the repository.
func Unobserved(data *dataset.Dataset, u int32, rng *mathx.RNG) int32 {
	m := data.NumItems()
	for tries := 0; tries < 64; tries++ {
		j := int32(rng.Intn(m))
		if !data.IsPositive(u, j) {
			return j
		}
	}
	// Degenerate user observing nearly everything: scan from a random
	// offset for the first unobserved item.
	start := rng.Intn(m)
	for off := 0; off < m; off++ {
		j := int32((start + off) % m)
		if !data.IsPositive(u, j) {
			return j
		}
	}
	panic("sampling: user has observed every item")
}

// rankedK draws the observed item k (≠ i) by geometric sampling over the
// user's observed items ordered by the factor-q ranking list, which
// Refresh has presorted. For MAP the paper samples from the *bottom* of
// the list (a weak observed item whose promotion is informative); for MRR
// from the *top*.
func (s *TripleSampler) rankedK(u int32, obs []int32, i int32, q int, descending bool) int32 {
	if len(obs) == 1 {
		return obs[0]
	}
	sorted := s.sortedObs[q][s.obsOff[u]:s.obsOff[u+1]]
	fromTop := s.cfg.Objective == MRR
	if !descending {
		fromTop = !fromTop
	}
	g := s.rng.GeometricCapped(geomPForLen(s.geomP, len(sorted)-1), len(sorted)-1)
	if s.posHist != nil {
		s.posHist.Observe(float64(g))
	}
	// Walk g non-i entries in from the chosen end.
	if fromTop {
		for idx := 0; idx < len(sorted); idx++ {
			if sorted[idx] == i {
				continue
			}
			if g == 0 {
				return sorted[idx]
			}
			g--
		}
	} else {
		for idx := len(sorted) - 1; idx >= 0; idx-- {
			if sorted[idx] == i {
				continue
			}
			if g == 0 {
				return sorted[idx]
			}
			g--
		}
	}
	// Unreachable for len(obs) > 1, but keep a safe fallback.
	return OtherObserved(obs, i, s.rng)
}

// geomPForLen rescales the global geometric parameter to a short list so
// the head-heavy shape is preserved rather than collapsing to index 0.
func geomPForLen(p float64, n int) float64 {
	if n <= 1 {
		return 1
	}
	// Aim the mean at roughly n/5, bounded to a valid probability.
	q := 5 / float64(n)
	if q > 1 {
		q = 1
	}
	if q < p {
		q = p
	}
	return q
}

// rankedJ draws the unobserved item j by geometric sampling from the top of
// the factor-q ranking list (both CLAPF-MAP and CLAPF-MRR want a
// high-scored negative — the hard-negative that keeps the gradient alive).
func (s *TripleSampler) rankedJ(u int32, q int, descending bool) int32 {
	order := s.orders[q]
	m := len(order)
	for tries := 0; tries < 64; tries++ {
		g := s.rng.GeometricCapped(s.geomP, m)
		if !descending {
			g = m - 1 - g
		}
		j := order[g]
		if !s.data.IsPositive(u, j) {
			if s.negHist != nil {
				// Record the rank relative to the targeted end, so the
				// histogram reads "distance from the hard-negative head"
				// for both list directions.
				rank := g
				if !descending {
					rank = m - 1 - g
				}
				s.negHist.Observe(float64(rank))
			}
			return j
		}
	}
	return Unobserved(s.data, u, s.rng)
}
