package mf

import (
	"fmt"
	"math"

	"clapf/internal/mathx"
)

// Factors32 is the read-only float32 serving representation of a factor
// model: same layout as Model (flat row-major U and V, per-item bias), half
// the bytes. It is produced at export time by QuantizeF32 or paged in from
// a float32 model file (internal/store.Open), never trained against.
//
// Every scoring method widens elements to float64 and accumulates in
// float64, so quantization error enters once, at export, not per query.
// The kernels are mathx.DotF32/DotF64F32 for one row and mathx.ScanF64F32
// for the catalog, whose four-way accumulation differs from Model's serial
// mathx.Dot order — float32 scores match float64 scores statistically
// (internal/eval's TestFloat32ParityWithFloat64), not bit-wise. Within the
// float32 representation everything is exact: the three kernels are
// bit-identical to each other on widened inputs, so dense scans, blocked
// batch sweeps, fold-in, and IVF probes all agree to the last bit.
type Factors32 struct {
	numUsers int
	numItems int
	dim      int
	useBias  bool

	u []float32 // numUsers × dim, row-major
	v []float32 // numItems × dim, row-major
	b []float32 // numItems (nil when bias disabled)

	// retain pins backing storage that is not GC-managed — for an
	// mmap-backed Factors32 the store package parks the mapping handle
	// here so the pages outlive every reader (see store.MappedModel).
	retain any
}

// QuantizeF32 rounds a trained model to float32 serving factors. Rounding
// is round-to-nearest-even (Go's float64→float32 conversion); values
// outside float32 range become ±Inf and will be caught by CountNonFinite
// at swap time rather than silently serving garbage.
func QuantizeF32(m *Model) *Factors32 {
	f := &Factors32{
		numUsers: m.numUsers,
		numItems: m.numItems,
		dim:      m.dim,
		useBias:  m.useBias,
		u:        make([]float32, len(m.u)),
		v:        make([]float32, len(m.v)),
	}
	for i, x := range m.u {
		f.u[i] = float32(x)
	}
	for i, x := range m.v {
		f.v[i] = float32(x)
	}
	if m.b != nil {
		f.b = make([]float32, len(m.b))
		for i, x := range m.b {
			f.b[i] = float32(x)
		}
	}
	return f
}

// FromRaw32 wraps existing float32 parameter slices (a decoded or mapped
// store section) without copying, validating lengths against the
// configuration. The caller must not mutate the slices afterwards.
func FromRaw32(cfg Config, u, v, b []float32) (*Factors32, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(u) != cfg.NumUsers*cfg.Dim {
		return nil, fmt.Errorf("mf: f32 user params have length %d, want %d", len(u), cfg.NumUsers*cfg.Dim)
	}
	if len(v) != cfg.NumItems*cfg.Dim {
		return nil, fmt.Errorf("mf: f32 item params have length %d, want %d", len(v), cfg.NumItems*cfg.Dim)
	}
	f := &Factors32{
		numUsers: cfg.NumUsers,
		numItems: cfg.NumItems,
		dim:      cfg.Dim,
		useBias:  cfg.UseBias,
		u:        u,
		v:        v,
	}
	if cfg.UseBias {
		if len(b) != cfg.NumItems {
			return nil, fmt.Errorf("mf: f32 bias params have length %d, want %d", len(b), cfg.NumItems)
		}
		f.b = b
	} else if len(b) != 0 {
		return nil, fmt.Errorf("mf: f32 bias params present on bias-free model")
	}
	return f, nil
}

// Retain pins x for the lifetime of f. The store package uses it to keep an
// mmap handle alive as long as any reader can still reach the mapped pages
// through f's slices (which the GC does not trace into the mapping).
func (f *Factors32) Retain(x any) { f.retain = x }

// Mapped reports whether f's storage is pinned outside the Go heap — a
// store mapping — rather than owned slices.
func (f *Factors32) Mapped() bool { return f.retain != nil }

// NumUsers returns n.
func (f *Factors32) NumUsers() int { return f.numUsers }

// NumItems returns the item count.
func (f *Factors32) NumItems() int { return f.numItems }

// Dim returns the latent dimensionality d.
func (f *Factors32) Dim() int { return f.dim }

// HasBias reports whether per-item biases are present.
func (f *Factors32) HasBias() bool { return f.useBias }

// ElemBytes reports the 4-byte float32 storage width.
func (f *Factors32) ElemBytes() int { return 4 }

// ParamBytes returns the total parameter footprint in bytes — half of the
// equivalent Model's.
func (f *Factors32) ParamBytes() int64 {
	return 4 * int64(len(f.u)+len(f.v)+len(f.b))
}

// Config reconstructs the Config describing this parameter set.
func (f *Factors32) Config() Config {
	return Config{
		NumUsers: f.numUsers,
		NumItems: f.numItems,
		Dim:      f.dim,
		UseBias:  f.useBias,
	}
}

// RawParams32 exposes the flat float32 slices for serialization. Callers
// outside internal/store should use the accessor methods instead.
func (f *Factors32) RawParams32() (u, v, b []float32) { return f.u, f.v, f.b }

// Bias returns b_i, or 0 when biases are disabled.
func (f *Factors32) Bias(i int32) float64 {
	if f.b == nil {
		return 0
	}
	return float64(f.b[i])
}

func (f *Factors32) userRow(u int32) []float32 {
	off := int(u) * f.dim
	return f.u[off : off+f.dim : off+f.dim]
}

func (f *Factors32) itemRow(i int32) []float32 {
	off := int(i) * f.dim
	return f.v[off : off+f.dim : off+f.dim]
}

// Score returns f_ui = U_u · V_i + b_i, accumulated in float64.
func (f *Factors32) Score(u, i int32) float64 {
	return mathx.DotF32(f.userRow(u), f.itemRow(i)) + f.Bias(i)
}

// ScoreRangeFoldIn fills the tile out (len(out) == hi-lo, out[j] is item
// lo+j) with the scores of items [lo, hi) under a float64 user vector. It
// is the representation's one item scan; a stored user is scored under
// UserVector(u), which widens the row exactly. The loop is
// mathx.ScanF64F32 — per row DotF64F32 plus the bias, bit for bit, as one
// AVX kernel on amd64 that takes four rows a pass, the four lanes of a
// row's register being DotF64F32's four accumulators — so this scan,
// Score's DotF32 and the IVF cell loop's ScanF64F32 produce the same bits.
func (f *Factors32) ScoreRangeFoldIn(userFactors []float64, lo, hi int, out []float64) {
	checkTile(len(userFactors), f.dim, lo, hi, f.numItems, len(out))
	var b []float32
	if f.b != nil {
		b = f.b[lo:hi]
	}
	mathx.ScanF64F32(userFactors, f.v[lo*f.dim:hi*f.dim], b, out)
}

// UserVector widens U_u into dst and returns it.
func (f *Factors32) UserVector(u int32, dst []float64) []float64 {
	return mathx.WidenF32(f.userRow(u), dst)
}

// ItemVector widens V_i into dst and returns it.
func (f *Factors32) ItemVector(i int32, dst []float64) []float64 {
	return mathx.WidenF32(f.itemRow(i), dst)
}

// CountNonFinite reports NaN/±Inf entries in (U, V, b). Out-of-range
// float64 values quantize to ±Inf, so this also catches overflow at export.
func (f *Factors32) CountNonFinite() (u, v, b int) {
	for _, x := range f.u {
		if isNonFinite32(x) {
			u++
		}
	}
	for _, x := range f.v {
		if isNonFinite32(x) {
			v++
		}
	}
	for _, x := range f.b {
		if isNonFinite32(x) {
			b++
		}
	}
	return
}

func isNonFinite32(x float32) bool {
	f64 := float64(x)
	return math.IsNaN(f64) || math.IsInf(f64, 0)
}
