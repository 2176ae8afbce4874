package mathx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"testing"
)

// sameBound fails unless BoundF32 — the AVX kernel where the host has one
// — wrote exactly what boundGo, its specification, writes; non-finite
// results compared by kind, as sameScan does.
func sameBound(t *testing.T, label string, u, v, b []float32, n int, outOff int) {
	t.Helper()
	got, want := make([]float64, outOff+n+1), make([]float64, outOff+n+1)
	const canary = -12345.5
	Fill(got, canary)
	Fill(want, canary)
	BoundF32(u, v, b, got[outOff:outOff+n])
	boundGo(u, v, b, want[outOff:outOff+n])
	sameBits(t, label, got, want, outOff)
}

// TestBoundF32MatchesPortable is the bound kernel's bit-identity table,
// TestScanF64F32MatchesPortable's shape at eight rows a pass: every d from
// 1 to 67 (every residue mod 8, and d < 8 where only the gathering tail
// runs), every row count from 0 to 17 (0..7 rows left to the Go body
// beside no pass, one and two) and around the 512-row tile, with and
// without bias, at odd element offsets, over random rows and — for n <= 9,
// so that each of the eight rows of a pass and a handed-off row are hit —
// the IEEE specials at every position of the catalog, the query and the
// bias: eight rows share one reduce, and a special in one must not reach
// its neighbours' lanes.
func TestBoundF32MatchesPortable(t *testing.T) {
	t.Logf("AVX kernel in use: %v", useAVX)
	rng := NewRNG(51)
	for d := 1; d <= 67; d++ {
		for _, n := range []int{0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 511, 512, 513} {
			for _, off := range []int{0, 1, 3} {
				u := randF32(rng, d)
				v := randF32(rng, off+n*d)[off:]
				b := randF32(rng, off+n)[off:]
				sameBound(t, "random", u, v, b, n, off)
				sameBound(t, "random, no bias", u, v, nil, n, off)
				if n == 0 || n > 9 || (off == 3 && d > 20) || (d > 12 && d%8 != 1 && d%8 != 7) {
					continue
				}
				for _, xs := range [][]float32{v, u, b} {
					for k := range xs {
						for _, x := range scanSpecials {
							old := xs[k]
							xs[k] = x
							sameBound(t, "special", u, v, b, n, off)
							xs[k] = old
						}
					}
				}
			}
		}
	}
	// Products and sums that overflow, cancel and underflow within a row,
	// in every lane.
	u := []float32{math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 1, 2, 3, 4, 5, math.MaxFloat32}
	v := make([]float32, 0, 9*9)
	for j := 0; j < 9; j++ {
		v = append(v, 2, 2, 0.5, float32(j), -2, 1e-40, 1e30, -1e30, float32(j))
	}
	sameBound(t, "float32 extremes", u, v, []float32{1, -1, 0, math.MaxFloat32, 1e-40, 0, 0, 0, 7}, 9, 1)
	sameBound(t, "d=0", nil, nil, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 9, 0)
	sameBound(t, "n=0", []float32{1}, nil, nil, 0, 0)
}

// TestBoundF32ShortSlicePanics: a v, b or out one element short (or long)
// is refused before the kernel is handed a pointer.
func TestBoundF32ShortSlicePanics(t *testing.T) {
	const n, d = 9, 6
	u, v, b, out := make([]float32, d), make([]float32, n*d), make([]float32, n), make([]float64, n)
	for name, call := range map[string]func(){
		"v short":   func() { BoundF32(u, v[:n*d-1], b, out) },
		"v long":    func() { BoundF32(u, append(v, 0), b, out) },
		"b short":   func() { BoundF32(u, v, b[:n-1], out) },
		"b empty":   func() { BoundF32(u, v, b[:0], out) },
		"out short": func() { BoundF32(u, v, b, out[:n-1]) },
		"u short":   func() { BoundF32(u[:d-1], v, b, out) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
	BoundF32(u, v, b, out)
	BoundF32(u, v, nil, out)
}

// within reports |approx − exact| ≤ tol, decided exactly: the difference
// of two float64 values needs at most 2 098 bits.
func within(approx, exact, tol float64) bool {
	diff := new(big.Float).SetPrec(4096).Sub(big.NewFloat(approx), big.NewFloat(exact))
	return diff.Abs(diff).Cmp(big.NewFloat(tol)) <= 0
}

// checkBound holds the filter's contract over every row of bd under the
// query u: where the bound scan and E are both finite, the exact score —
// exact(i), the representation's own one-row kernel — is finite too and
// within E of the bound scan's. A non-finite s̃ or E skips nothing, so it
// promises nothing.
func checkBound(t *testing.T, label string, bd *Bound, u []float64, exact func(i int) float64) {
	t.Helper()
	u32 := make([]float32, len(u))
	tol := bd.Query(u, u32)
	n := bd.rows()
	approx := make([]float64, n)
	bd.Scan(u32, 0, n, approx)
	for i, st := range approx {
		if st-st != 0 || tol-tol != 0 {
			continue
		}
		s := exact(i)
		if s-s != 0 || !within(st, s, tol) {
			t.Fatalf("%s: row %d: bound scan %v (%#x), exact %v (%#x), E = %v", label, i, st, math.Float64bits(st), s, math.Float64bits(s), tol)
		}
	}
}

// checkBoundF32 and checkBoundF64 build the bound the way score.Engine and
// retrieval.Index do — over float32 rows directly, or over a float32
// shadow of float64 rows — and rescore exactly with ScanF64F32 or ScanF64.
func checkBoundF32(t *testing.T, label string, u []float64, v, b []float32) {
	t.Helper()
	d := len(u)
	one := make([]float64, 1)
	checkBound(t, label+" f32", BoundOverF32(v, b, d), u, func(i int) float64 {
		var bi []float32
		if b != nil {
			bi = b[i : i+1]
		}
		ScanF64F32(u, v[i*d:(i+1)*d], bi, one)
		return one[0]
	})
}

func checkBoundF64(t *testing.T, label string, u, v, b []float64) {
	t.Helper()
	d := len(u)
	one := make([]float64, 1)
	checkBound(t, label+" f64", BoundOverF64(v, b, d), u, func(i int) float64 {
		var bi []float64
		if b != nil {
			bi = b[i : i+1]
		}
		ScanF64(u, v[i*d:(i+1)*d], bi, one)
		return one[0]
	})
}

// TestBoundCoversTheExactScore is E's table: gaussian catalogs at every d
// in 1..67 under queries scaled from 1e-30 to 1e30; rows built so that
// their products cancel to almost nothing (the float32 sum's error is then
// all of s̃); rows, queries and biases in float32's subnormal range, and
// below it, where quantisation is absolute rather than relative; float64
// rows that float32 rounds to ±Inf or to zero; and queries float32 cannot
// hold.
func TestBoundCoversTheExactScore(t *testing.T) {
	rng := NewRNG(52)
	for d := 1; d <= 67; d++ {
		const n = 37
		v64, b64 := randF64(rng, n*d), randF64(rng, n)
		v32, b32 := randF32(rng, n*d), randF32(rng, n)
		for _, scale := range []float64{1e-30, 1e-3, 1, 7, 1e30} {
			u := randF64(rng, d)
			Scale(scale, u)
			label := fmt.Sprintf("gaussian d=%d scale=%g", d, scale)
			checkBoundF32(t, label, u, v32, b32)
			checkBoundF32(t, label+" no bias", u, v32, nil)
			checkBoundF64(t, label, u, v64, b64)
			checkBoundF64(t, label+" no bias", u, v64, nil)
		}
	}
	for _, d := range []int{2, 3, 8, 9, 16, 18, 33} {
		const n = 19
		u := make([]float64, d)
		for k := range u {
			u[k] = 1 + 1e-3*float64(k)
		}
		// Cancellation: each row is +M, -M and a small remainder, so the
		// exact score is tiny beside ‖u‖·‖V_i‖.
		v64, b64 := make([]float64, n*d), make([]float64, n)
		for i := 0; i < n; i++ {
			row := v64[i*d : (i+1)*d]
			for k := range row {
				row[k] = 1e-7 * rng.NormFloat64()
			}
			m := math.Ldexp(1+rng.Float64(), i)
			row[0], row[d-1] = m, -m*u[0]/u[d-1]
			b64[i] = -1e-3 * float64(i)
		}
		v32, b32 := make([]float32, n*d), make([]float32, n)
		for i := range v64 {
			v32[i] = float32(v64[i])
		}
		for i := range b64 {
			b32[i] = float32(b64[i])
		}
		checkBoundF32(t, fmt.Sprintf("cancellation d=%d", d), u, v32, b32)
		checkBoundF64(t, fmt.Sprintf("cancellation d=%d", d), u, v64, b64)

		// Subnormal and underflowing values, and values beyond float32.
		for _, pair := range [][2]float64{{1e-40, 1}, {1e-45, 1e-40}, {1e-50, 1e-38}, {1e-300, 1}, {1, 1e-42}, {1e39, 1}, {1, 1e39}, {3e38, 1}} {
			uq, vq := pair[0], pair[1]
			uu := make([]float64, d)
			for k := range uu {
				uu[k] = uq * rng.NormFloat64()
			}
			vv, bb := make([]float64, n*d), make([]float64, n)
			for i := range vv {
				vv[i] = vq * rng.NormFloat64()
			}
			for i := range bb {
				bb[i] = vq * 1e-3 * rng.NormFloat64()
			}
			label := fmt.Sprintf("extremes d=%d u~%g v~%g", d, uq, vq)
			checkBoundF64(t, label, uu, vv, bb)
			vv32, bb32 := make([]float32, n*d), make([]float32, n)
			for i := range vv {
				vv32[i] = float32(vv[i])
			}
			for i := range bb {
				bb32[i] = float32(bb[i])
			}
			checkBoundF32(t, label, uu, vv32, bb32)
		}
	}
}

// TestBoundNonFinite: a row whose float32 image holds a NaN or ±Inf — a
// float64 value beyond float32's range included — scores a non-finite s̃
// under any finite query, and so always survives; it is left out of the
// maxima, which stay those of the finite rows. A query with a NaN, an
// ±Inf or an overflowing norm has a NaN or +Inf E: nothing is skipped.
func TestBoundNonFinite(t *testing.T) {
	const d = 9
	rng := NewRNG(53)
	v, b := randF64(rng, 4*d), randF64(rng, 4)
	Scale(1e3, v[d:]) // rows 1..3 would set both maxima
	Scale(1e3, b[1:])
	v[d+3] = 1e39         // row 1: beyond float32
	v[2*d+8] = math.NaN() // row 2
	b[3] = math.Inf(-1)   // row 3
	bd := BoundOverF64(v, b, d)
	u := randF64(rng, d)
	u32 := make([]float32, d)
	tol := bd.Query(u, u32)
	out := make([]float64, 4)
	bd.Scan(u32, 0, 4, out)
	for i, s := range out {
		if finite := s-s == 0; finite != (i == 0) {
			t.Errorf("row %d: bound scan %v", i, s)
		}
	}
	img := WidenF32(bd.v[:d], nil)
	if want, wantBias := math.Sqrt(Norm2Sq(img)), math.Abs(float64(float32(b[0]))); bd.maxNorm != want || bd.maxBias != wantBias {
		t.Errorf("maxima %v, %v: want row 0's image alone, %v, %v", bd.maxNorm, bd.maxBias, want, wantBias)
	}
	if tol-tol != 0 {
		t.Errorf("E = %v for a finite query", tol)
	}
	for _, q := range [][]float64{{math.NaN()}, {math.Inf(1)}, {math.Inf(-1)}, {1e200, 1e200}} {
		uq := append(append([]float64(nil), q...), make([]float64, d-len(q))...)
		if tol := bd.Query(uq, u32); tol-tol == 0 {
			t.Errorf("query %v: E = %v, want NaN or +Inf", q, tol)
		}
	}
}

// FuzzBoundF32 feeds raw bit patterns through the bound kernel and its
// portable loop, and holds E over the same bits read as a float32 catalog
// and as a float64 one. The first byte picks d, the second the offset
// parity; then the query as float64 words (so values float32 cannot hold
// are reachable), then the rows and biases as float32 words. The float64
// catalog widens the same words and scales every other one by 2⁻¹⁴⁰ or
// 2⁺¹⁴⁰, so subnormal-bound and beyond-float32 rows are reachable too.
func FuzzBoundF32(f *testing.F) {
	seed := func(d, off byte, query []uint64, words ...uint32) {
		buf := []byte{d, off}
		for _, w := range query {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		for _, w := range words {
			buf = binary.LittleEndian.AppendUint32(buf, w)
		}
		f.Add(buf)
	}
	const (
		one, negZero, inf, negInf = 0x3f800000, 0x80000000, 0x7f800000, 0xff800000
		nan, sub, maxF, big       = 0x7fc00001, 0x00000001, 0x7f7fffff, 0x4b800000
		one64, tiny64, huge64     = 0x3ff0000000000000, 0x3800000000000000, 0x47f0000000000000
	)
	seed(1, 0, []uint64{one64}, one, one)
	seed(2, 1, []uint64{one64, one64}, big, 0x80000000|big, one, one, sub, one, negZero, one, maxF, maxF, one, inf, negInf)
	seed(3, 0, []uint64{tiny64, one64, huge64}, one, one, one, one, sub, sub, sub, sub, nan)
	seed(9, 1, []uint64{one64, one64, one64, one64, one64, one64, one64, one64, one64},
		big, one, one, one, one, one, one, one, 0x80000000|big, one,
		sub, sub, sub, sub, sub, sub, sub, sub, sub, sub)
	seed(16, 0, make([]uint64, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d, off := int(data[0]%68), int(data[1]%2)
		data = data[2:]
		if d == 0 || len(data) < 8*d {
			return
		}
		u := make([]float64, d)
		for k := range u {
			u[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
		}
		words := make([]float32, 0, len(data)/4)
		for data = data[8*d:]; len(data) >= 4; data = data[4:] {
			words = append(words, math.Float32frombits(binary.LittleEndian.Uint32(data)))
		}
		if len(words) < off {
			return
		}
		words = words[off:]
		n := len(words) / (d + 1)
		v, b := words[:n*d], words[n*d:n*d+n]
		u32 := make([]float32, d)
		for k, x := range u {
			u32[k] = float32(x)
		}
		sameBound(t, "fuzz", u32, v, b, n, off)
		sameBound(t, "fuzz, no bias", u32, v, nil, n, off)
		checkBoundF32(t, "fuzz", u, v, b)
		v64, b64 := WidenF32(v, nil), WidenF32(b, nil)
		for i := range v64 {
			if i%2 == 1 {
				v64[i] = math.Ldexp(v64[i], 140*(1-2*(i/2%2)))
			}
		}
		checkBoundF64(t, "fuzz", u, v64, b64)
		checkBoundF64(t, "fuzz, no bias", u, v64, nil)
	})
}

// BenchmarkBoundF32 is the filter's scan at the benchmark's catalog shape,
// beside BenchmarkScanF64F32: tiles scans it as score.Engine.sweep does,
// 53 calls of at most 512 rows into one 4 KB buffer; portable is the Go
// loop over the whole catalog.
func BenchmarkBoundF32(b *testing.B) {
	const n, tile = 26744, 512
	rng := NewRNG(1)
	for _, d := range []int{16, 18} {
		u, v, bias, out := randF32(rng, d), randF32(rng, n*d), randF32(rng, n), make([]float64, n)
		for _, impl := range []struct {
			name string
			scan func(u, v, b []float32, out []float64)
		}{
			{"tiles", func(u, v, b []float32, out []float64) {
				for lo := 0; lo < n; lo += tile {
					hi := min(lo+tile, n)
					BoundF32(u, v[lo*d:hi*d], b[lo:hi], out[:hi-lo])
				}
			}},
			{"portable", boundGo},
		} {
			b.Run(fmt.Sprintf("%s/d=%d", impl.name, d), func(b *testing.B) {
				b.SetBytes(int64(4 * (len(v) + len(bias))))
				for i := 0; i < b.N; i++ {
					impl.scan(u, v, bias, out)
				}
			})
		}
	}
}
