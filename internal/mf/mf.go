// Package mf provides the matrix-factorization substrate shared by every
// latent-factor model in the repository: BPR, MPR, CLiMF, WMF, and both
// CLAPF instantiations all score a user-item pair as
//
//	f_ui = U_u · V_i + b_i
//
// (§3.1 of the paper). Factors are stored flat and row-major so the SGD
// inner loops touch contiguous memory.
package mf

import (
	"fmt"
	"math"

	"clapf/internal/mathx"
)

// Config describes the shape and initialization of a factor model.
type Config struct {
	NumUsers int
	NumItems int
	Dim      int     // number of latent factors d (paper fixes d = 20)
	UseBias  bool    // include the per-item bias b_i
	InitStd  float64 // stddev of the Gaussian factor initialization
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumUsers <= 0:
		return fmt.Errorf("mf: NumUsers = %d, want > 0", c.NumUsers)
	case c.NumItems <= 0:
		return fmt.Errorf("mf: NumItems = %d, want > 0", c.NumItems)
	case c.Dim <= 0:
		return fmt.Errorf("mf: Dim = %d, want > 0", c.Dim)
	case c.InitStd < 0:
		return fmt.Errorf("mf: InitStd = %v, want >= 0", c.InitStd)
	}
	return nil
}

// Model holds the learned parameters Θ = {U, V, b}.
type Model struct {
	numUsers int
	numItems int
	dim      int
	useBias  bool

	u []float64 // numUsers × dim, row-major
	v []float64 // numItems × dim, row-major
	b []float64 // numItems (nil when bias disabled)
}

// New allocates a zero-initialized model. Call InitGaussian before training.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		numUsers: cfg.NumUsers,
		numItems: cfg.NumItems,
		dim:      cfg.Dim,
		useBias:  cfg.UseBias,
		u:        make([]float64, cfg.NumUsers*cfg.Dim),
		v:        make([]float64, cfg.NumItems*cfg.Dim),
	}
	if cfg.UseBias {
		m.b = make([]float64, cfg.NumItems)
	}
	return m, nil
}

// MustNew is New for statically valid configurations (tests, examples).
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// InitGaussian draws every factor from N(0, std²). Biases start at zero, as
// in the reference implementations the paper compares under one framework.
func (m *Model) InitGaussian(rng *mathx.RNG, std float64) {
	for i := range m.u {
		m.u[i] = rng.NormFloat64() * std
	}
	for i := range m.v {
		m.v[i] = rng.NormFloat64() * std
	}
	if m.b != nil {
		mathx.Fill(m.b, 0)
	}
}

// NumUsers returns n.
func (m *Model) NumUsers() int { return m.numUsers }

// NumItems returns m (the item count).
func (m *Model) NumItems() int { return m.numItems }

// Dim returns the latent dimensionality d.
func (m *Model) Dim() int { return m.dim }

// HasBias reports whether the model carries per-item biases.
func (m *Model) HasBias() bool { return m.useBias }

// UserFactors returns the mutable latent vector U_u.
func (m *Model) UserFactors(u int32) []float64 {
	off := int(u) * m.dim
	return m.u[off : off+m.dim : off+m.dim]
}

// ItemFactors returns the mutable latent vector V_i.
func (m *Model) ItemFactors(i int32) []float64 {
	off := int(i) * m.dim
	return m.v[off : off+m.dim : off+m.dim]
}

// Bias returns b_i, or 0 when the model has no bias term.
func (m *Model) Bias(i int32) float64 {
	if m.b == nil {
		return 0
	}
	return m.b[i]
}

// AddBias adds delta to b_i. It is a no-op for bias-free models so update
// rules need not branch.
func (m *Model) AddBias(i int32, delta float64) {
	if m.b != nil {
		m.b[i] += delta
	}
}

// Score returns the predicted relevance f_ui = U_u · V_i + b_i.
func (m *Model) Score(u, i int32) float64 {
	return mathx.Dot(m.UserFactors(u), m.ItemFactors(i)) + m.Bias(i)
}

// ScoreAll fills out[i] with f_ui for every item. out must have length
// NumItems. This is the evaluation hot path (the protocol ranks all
// unobserved items, and eval.Scorer is this method), so it streams through
// V once: the model's one item scan under the stored row U_u.
func (m *Model) ScoreAll(u int32, out []float64) {
	if len(out) != m.numItems {
		panic(fmt.Sprintf("mf: ScoreAll buffer has length %d, want %d", len(out), m.numItems))
	}
	m.ScoreRangeFoldIn(m.UserFactors(u), 0, m.numItems, out)
}

// checkTile panics unless the user vector has the model's dimensionality,
// [lo, hi) is a range of the numItems items and the tile buffer holds
// exactly its hi-lo scores — a caller bug, never input.
func checkTile(ufLen, dim, lo, hi, numItems, outLen int) {
	if ufLen != dim {
		panic(fmt.Sprintf("mf: user vector has dim %d, want %d", ufLen, dim))
	}
	if lo < 0 || hi > numItems || lo > hi {
		panic(fmt.Sprintf("mf: score range [%d,%d) out of range [0,%d)", lo, hi, numItems))
	}
	if outLen != hi-lo {
		panic(fmt.Sprintf("mf: score tile has length %d, want %d", outLen, hi-lo))
	}
}

// FactorColumn copies latent factor q of every item into out (length
// NumItems). The DSS and AoBPR samplers rank items by a single factor's
// value; gathering the column once keeps their refresh pass linear.
func (m *Model) FactorColumn(q int, out []float64) {
	if q < 0 || q >= m.dim {
		panic(fmt.Sprintf("mf: factor %d out of range [0,%d)", q, m.dim))
	}
	if len(out) != m.numItems {
		panic(fmt.Sprintf("mf: FactorColumn buffer has length %d, want %d", len(out), m.numItems))
	}
	for i := 0; i < m.numItems; i++ {
		out[i] = m.v[i*m.dim+q]
	}
}

// UserFactor returns U_{u,q}, the single entry DSS inspects for its sign
// test.
func (m *Model) UserFactor(u int32, q int) float64 {
	return m.u[int(u)*m.dim+q]
}

// CountNonFinite returns how many entries of U, V, and b are NaN or ±Inf.
// A healthy model has (0, 0, 0); anything else means a divergent or
// corrupted parameter vector that will poison every score it touches.
func (m *Model) CountNonFinite() (u, v, b int) {
	for _, x := range m.u {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			u++
		}
	}
	for _, x := range m.v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v++
		}
	}
	for _, x := range m.b {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			b++
		}
	}
	return
}

// L2Norms returns the squared norms (‖U‖², ‖V‖², ‖b‖²) for monitoring
// regularization pressure.
func (m *Model) L2Norms() (u2, v2, b2 float64) {
	u2 = mathx.Norm2Sq(m.u)
	v2 = mathx.Norm2Sq(m.v)
	if m.b != nil {
		b2 = mathx.Norm2Sq(m.b)
	}
	return
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := *m
	c.u = mathx.CopyVec(m.u)
	c.v = mathx.CopyVec(m.v)
	if m.b != nil {
		c.b = mathx.CopyVec(m.b)
	}
	return &c
}

// SetFrom copies src's parameters into m, which must have the same shape.
// Restoring into an existing model (rather than swapping pointers) keeps
// every alias of m — samplers, servers, evaluators — looking at the new
// parameters.
func (m *Model) SetFrom(src *Model) error {
	if src == nil {
		return fmt.Errorf("mf: SetFrom nil model")
	}
	if m.numUsers != src.numUsers || m.numItems != src.numItems ||
		m.dim != src.dim || m.useBias != src.useBias {
		return fmt.Errorf("mf: SetFrom shape mismatch: have %d×%d dim %d bias %v, source %d×%d dim %d bias %v",
			m.numUsers, m.numItems, m.dim, m.useBias,
			src.numUsers, src.numItems, src.dim, src.useBias)
	}
	copy(m.u, src.u)
	copy(m.v, src.v)
	if m.b != nil {
		copy(m.b, src.b)
	}
	return nil
}

// RawParams exposes the flat parameter slices for serialization. Callers
// outside internal/store should use the accessor methods instead.
func (m *Model) RawParams() (u, v, b []float64) { return m.u, m.v, m.b }

// FromRaw reconstructs a model from serialized parameters, validating the
// slice lengths against the configuration.
func FromRaw(cfg Config, u, v, b []float64) (*Model, error) {
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if len(u) != len(m.u) {
		return nil, fmt.Errorf("mf: user params have length %d, want %d", len(u), len(m.u))
	}
	if len(v) != len(m.v) {
		return nil, fmt.Errorf("mf: item params have length %d, want %d", len(v), len(m.v))
	}
	copy(m.u, u)
	copy(m.v, v)
	if cfg.UseBias {
		if len(b) != m.numItems {
			return nil, fmt.Errorf("mf: bias params have length %d, want %d", len(b), m.numItems)
		}
		copy(m.b, b)
	} else if len(b) != 0 {
		return nil, fmt.Errorf("mf: bias params present on bias-free model")
	}
	return m, nil
}

// Config reconstructs the Config describing this model.
func (m *Model) Config() Config {
	return Config{
		NumUsers: m.numUsers,
		NumItems: m.numItems,
		Dim:      m.dim,
		UseBias:  m.useBias,
	}
}
