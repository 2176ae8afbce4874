package mf

import "fmt"

// Params is the read-only scoring surface the serving stack works against:
// rows (UserVector, ItemVector, Bias) and one item scan (ScoreRangeFoldIn).
// Three types implement it: *Model (the float64 training representation),
// *Factors32 (the half-width serving representation produced at export
// time) and *Overlay (either of them with some user rows replaced by
// streaming feedback). Everything downstream of training — the blocked
// scoring engine, the IVF index builder, fold-in, similar-items, and the
// HTTP server's liveState — is generic over this interface, so a server
// can page in a float32 store without the rest of the stack knowing.
//
// All scores are float64: float32 implementations widen each element and
// accumulate in float64 (see internal/mathx), which keeps rankings
// bit-identical to scoring the widened copy with the float64 kernels.
type Params interface {
	NumUsers() int
	NumItems() int
	Dim() int
	HasBias() bool

	// Bias returns b_i, or 0 when the model has no bias term.
	Bias(i int32) float64

	// ScoreRangeFoldIn is the representation's one item scan: it fills
	// one tile — len(out) == hi-lo, out[j] is item lo+j — with
	// f_i = userFactors · V_i + b_i, the same bits whatever the tiling.
	// A stored user is scored under UserVector(u); a cold-start or
	// overlaid user under its folded-in vector. score.Engine tiles full
	// rows and blocked batches through it; its fused top-K reads the rows
	// (Items) and runs the same kernel over the one row that can place.
	ScoreRangeFoldIn(userFactors []float64, lo, hi int, out []float64)

	// UserVector returns U_u as float64, reusing dst when it has
	// capacity. Implementations may return internal storage (the model
	// does); callers must not mutate the result.
	UserVector(u int32, dst []float64) []float64

	// ItemVector returns V_i as float64 under the same contract as
	// UserVector.
	ItemVector(i int32, dst []float64) []float64

	// CountNonFinite reports NaN/±Inf entries in (U, V, b) — the
	// serve-side validation gate.
	CountNonFinite() (u, v, b int)

	// ElemBytes is the storage width of one factor (8 for float64, 4 for
	// float32); the blocked engine sizes its cache tiles with it.
	ElemBytes() int

	// ParamBytes is the total size of the parameter arrays in bytes —
	// the serving-memory footprint the benchmarks report.
	ParamBytes() int64
}

// Compile-time interface checks.
var (
	_ Params = (*Model)(nil)
	_ Params = (*Factors32)(nil)
	_ Params = (*Overlay)(nil)
)

// ItemRows is a parameter set's item half as the flat row-major slices the
// internal/mathx kernels take: exactly one of V64 and V32 is non-nil, and
// the bias slice beside it is nil on a bias-free model.
type ItemRows struct {
	V64, B64 []float64
	V32, B32 []float32
}

// Items returns p's item rows: a *Model's or a *Factors32's own storage
// (or that of the one a type embeds), and an *Overlay's base's, since an
// overlay replaces user rows only. The slices are read-only to the caller.
// It is how a scan that takes rows rather than the Params interface — the
// fused top-K's bound filter and its one-row rescoring — reaches them
// without a copy.
func Items(p Params) ItemRows {
	switch p := p.(type) {
	case *Overlay:
		return Items(p.Params)
	case interface{ RawParams() (u, v, b []float64) }:
		_, v, b := p.RawParams()
		return ItemRows{V64: v, B64: b}
	case interface{ RawParams32() (u, v, b []float32) }:
		_, v, b := p.RawParams32()
		return ItemRows{V32: v, B32: b}
	}
	panic(fmt.Sprintf("mf: no item rows for a %T", p))
}

// UserVector returns U_u. The model stores float64 natively, so this is the
// live row; dst is ignored.
func (m *Model) UserVector(u int32, dst []float64) []float64 { return m.UserFactors(u) }

// ItemVector returns V_i, the live float64 row; dst is ignored.
func (m *Model) ItemVector(i int32, dst []float64) []float64 { return m.ItemFactors(i) }

// ElemBytes reports the model's 8-byte float64 storage width.
func (m *Model) ElemBytes() int { return 8 }

// ParamBytes returns the total parameter footprint in bytes.
func (m *Model) ParamBytes() int64 {
	return 8 * int64(len(m.u)+len(m.v)+len(m.b))
}
