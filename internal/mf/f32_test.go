package mf

import (
	"math"
	"testing"

	"clapf/internal/mathx"
)

func sampleF32Model(t *testing.T, seed uint64, useBias bool) (*Model, *Factors32) {
	t.Helper()
	m := MustNew(Config{NumUsers: 9, NumItems: 13, Dim: 6, UseBias: useBias})
	rng := mathx.NewRNG(seed)
	m.InitGaussian(rng, 0.3)
	if useBias {
		for i := int32(0); i < 13; i++ {
			m.AddBias(i, rng.NormFloat64())
		}
	}
	return m, QuantizeF32(m)
}

// TestF32ScoringConsistency pins the internal bit-consistency contract:
// both float32 scoring entry points — Score, and the item scan under the
// widened user row, whole or cut into ragged tiles — return identical bits
// for the same (user, item). This is the invariant that makes single and
// batch serving, and exact and full-probe IVF retrieval, byte-comparable
// over float32 factors.
func TestF32ScoringConsistency(t *testing.T) {
	for _, useBias := range []bool{true, false} {
		_, f := sampleF32Model(t, 21, useBias)
		n := f.NumItems()
		all := make([]float64, n)
		tiled := make([]float64, n)
		for u := int32(0); u < int32(f.NumUsers()); u++ {
			uf := f.UserVector(u, nil)
			f.ScoreRangeFoldIn(uf, 0, n, all)
			for lo := 0; lo < n; lo += 5 {
				hi := min(lo+5, n)
				f.ScoreRangeFoldIn(uf, lo, hi, tiled[lo:hi])
			}
			for i := 0; i < n; i++ {
				s := f.Score(u, int32(i))
				if math.Float64bits(all[i]) != math.Float64bits(s) {
					t.Fatalf("bias=%v u=%d i=%d: whole scan %v != Score %v", useBias, u, i, all[i], s)
				}
				if math.Float64bits(tiled[i]) != math.Float64bits(s) {
					t.Fatalf("bias=%v u=%d i=%d: tiled scan %v != Score %v", useBias, u, i, tiled[i], s)
				}
			}
		}
	}
}

// Sub-range scoring must agree with the full scan on the overlap and
// leave everything outside [lo, hi) untouched.
func TestF32ScoreRangeWindow(t *testing.T) {
	_, f := sampleF32Model(t, 22, true)
	n := f.NumItems()
	uf := f.UserVector(3, nil)
	full := make([]float64, n)
	f.ScoreRangeFoldIn(uf, 0, n, full)
	part := make([]float64, n)
	for i := range part {
		part[i] = math.Inf(-1)
	}
	f.ScoreRangeFoldIn(uf, 4, 9, part[4:9])
	for i := 0; i < n; i++ {
		if i >= 4 && i < 9 {
			if part[i] != full[i] {
				t.Errorf("item %d: range %v, full %v", i, part[i], full[i])
			}
		} else if !math.IsInf(part[i], -1) {
			t.Errorf("item %d outside range was written: %v", i, part[i])
		}
	}
}

// Quantization must round each parameter independently to nearest
// float32, and f32 scores must track f64 scores to float32 precision.
func TestQuantizeF32(t *testing.T) {
	m, f := sampleF32Model(t, 23, true)
	u64, v64, b64 := m.RawParams()
	u32, v32, b32 := f.RawParams32()
	check := func(name string, xs []float64, ys []float32) {
		if len(xs) != len(ys) {
			t.Fatalf("%s: %d vs %d params", name, len(xs), len(ys))
		}
		for i := range xs {
			if ys[i] != float32(xs[i]) {
				t.Errorf("%s[%d]: %v quantized to %v", name, i, xs[i], ys[i])
			}
		}
	}
	check("u", u64, u32)
	check("v", v64, v32)
	check("b", b64, b32)
	for u := int32(0); u < int32(m.NumUsers()); u++ {
		for i := int32(0); i < int32(m.NumItems()); i++ {
			a, b := m.Score(u, i), f.Score(u, i)
			if math.Abs(a-b) > 1e-5*(1+math.Abs(a)) {
				t.Errorf("score(%d,%d): f64 %v vs f32 %v", u, i, a, b)
			}
		}
	}
	if f.ParamBytes()*2 != m.ParamBytes() {
		t.Errorf("ParamBytes = %d, want half of %d", f.ParamBytes(), m.ParamBytes())
	}
	if f.ElemBytes() != 4 {
		t.Errorf("ElemBytes = %d", f.ElemBytes())
	}
	if f.Config() != m.Config() {
		t.Errorf("Config round trip: %+v vs %+v", f.Config(), m.Config())
	}
}

func TestFromRaw32Validation(t *testing.T) {
	cfg := Config{NumUsers: 2, NumItems: 3, Dim: 2, UseBias: true}
	u := make([]float32, 4)
	v := make([]float32, 6)
	b := make([]float32, 3)
	if _, err := FromRaw32(cfg, u, v, b); err != nil {
		t.Fatalf("valid shapes rejected: %v", err)
	}
	for name, tc := range map[string]struct{ u, v, b []float32 }{
		"short-u":        {u[:3], v, b},
		"short-v":        {u, v[:5], b},
		"short-b":        {u, v, b[:2]},
		"bias-without-b": {u, v, nil},
	} {
		if _, err := FromRaw32(cfg, tc.u, tc.v, tc.b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	noBias := Config{NumUsers: 2, NumItems: 3, Dim: 2}
	if _, err := FromRaw32(noBias, u, v, b); err == nil {
		t.Error("b supplied with UseBias=false: accepted")
	}
}

// Out-of-float32-range parameters become ±Inf at quantization and must be
// counted, not served.
func TestF32CountNonFinite(t *testing.T) {
	m, _ := sampleF32Model(t, 24, true)
	u64, v64, _ := m.RawParams()
	u64[1] = math.MaxFloat64 // overflows float32 to +Inf
	v64[2] = math.NaN()
	f := QuantizeF32(m)
	cu, cv, cb := f.CountNonFinite()
	if cu != 1 || cv != 1 || cb != 0 {
		t.Errorf("CountNonFinite = (%d, %d, %d), want (1, 1, 0)", cu, cv, cb)
	}
}

// TestScanMaskedMatchesScan: ItemRows.scanMasked, called until it returns
// no rows, returns exactly the rows its mask sets, ascending, each with the
// bits Scan gives it, and clears the mask — over float64 and float32 rows,
// with and without a bias, for an empty mask, a lone row (scanned in
// place), a full one and random ones longer than one call takes, at an
// offset lo.
func TestScanMaskedMatchesScan(t *testing.T) {
	const n, d, lo = 150, 6, 7
	rng := mathx.NewRNG(5)
	for _, useBias := range []bool{true, false} {
		m := MustNew(Config{NumUsers: 2, NumItems: n, Dim: d, UseBias: useBias})
		m.InitGaussian(rng, 0.3)
		if useBias {
			for i := int32(0); i < n; i++ {
				m.AddBias(i, rng.NormFloat64())
			}
		}
		for name, p := range map[string]Params{"f64": m, "f32": QuantizeF32(m)} {
			r := Items(p)
			uf := p.UserVector(1, nil)
			want := make([]float64, n-lo)
			r.Scan(uf, lo, n, want)
			const last = 1<<(n-lo-128) - 1
			masks := [][3]uint64{{}, {1 << 40}, {0, 0, last}, {^uint64(0), ^uint64(0), last}}
			for range 20 {
				masks = append(masks, [3]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64() & last})
			}
			var g gatherBuf
			out := make([]float64, n)
			for _, mask := range masks {
				bits := mask
				var rows []int32
				var scores []float64
				for {
					r1, s1 := r.scanMasked(uf, lo, bits[:], &g, out)
					if len(r1) == 0 {
						break
					}
					rows, scores = append(rows, r1...), append(scores, s1...)
				}
				j := 0
				for b := 0; b < n-lo; b++ {
					if mask[b/64]&(1<<(b%64)) == 0 {
						continue
					}
					if j >= len(rows) || rows[j] != int32(lo+b) || math.Float64bits(scores[j]) != math.Float64bits(want[b]) {
						t.Fatalf("%s bias=%v mask %x: rows %v scores %v; row %d should be entry %d, score %v", name, useBias, mask, rows, scores, lo+b, j, want[b])
					}
					j++
				}
				if j != len(rows) || len(scores) != len(rows) || bits != [3]uint64{} {
					t.Fatalf("%s bias=%v mask %x: %d rows, %d scores, want %d; mask left %x", name, useBias, mask, len(rows), len(scores), j, bits)
				}
			}
		}
	}
}
