package mf

// Params is the read-only scoring surface the serving stack works against.
// Two implementations exist: *Model (the float64 training representation)
// and *Factors32 (the half-width serving representation produced at export
// time). Everything downstream of training — the blocked scoring engine,
// the IVF index builder, fold-in, similar-items, and the HTTP server's
// liveState — is generic over this interface, so a server can page in a
// float32 store without the rest of the stack knowing.
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

	// ScoreAll fills out[i] with f_ui for every item; out must have
	// length NumItems.
	ScoreAll(u int32, out []float64)

	// ScoreRange fills one tile — len(out) == hi-lo, out[j] is item
	// lo+j — with the same values ScoreAll would, bit for bit, so blocked
	// callers can tile the item scan into a window of a full row or into
	// a small buffer they reuse.
	ScoreRange(u int32, lo, hi int, out []float64)

	// ScoreAllFoldIn scores every item under a folded-in float64 user
	// vector; out must have length NumItems.
	ScoreAllFoldIn(userFactors []float64, out []float64)

	// ScoreRangeFoldIn fills one tile (len(out) == hi-lo) with the same
	// values ScoreAllFoldIn would, bit for bit, so blocked callers can
	// tile a folded-in scan the way ScoreRange tiles a stored-user scan.
	// The online-update overlay routes updated users through it, and the
	// fused exact top-K (score.Engine.TopK) scans every user through it.
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
