package mathx

import (
	"fmt"
	"math"
)

// The bound filter. A top-k scan keeps k rows of a catalog and ignores the
// rest, and the exact kernels (ScanF64, ScanF64F32) pay for float64 bits on
// every row they ignore: per 16-wide float32 row, four converts, four
// multiplies and four adds, which is where the scan's time goes — the
// catalog is in L2, the execution ports are the limit. BoundF32 scores the
// same rows in float32, eight lanes an instruction, as s̃; a row can then
// only place if s̃ is within E of the selector's floor, and only those rows
// are rescored by the exact kernel. The answer is the exact scan's, bit for
// bit, because a row that is skipped provably scores below the floor.
//
// The bound. Write n = d+1 (the d products and the bias), u32 = 2⁻²⁴ and
// u64 = 2⁻⁵³ (unit roundoffs), ũ, Ṽ_i and b̃_i for the float32 images of
// the query and of row i, and for a row whose image is finite
//
//	B_i = Σ_k |u_k·v_ik| + |b_i|  ≤  ‖u‖·‖V_i‖ + |b_i|
//
// (Cauchy–Schwarz; u is the float64 query, V_i and b_i the catalog's own
// values, float64 or float32). maxNorm and maxBias are measured on the
// images, which a float64 row exceeds by at most a factor 1 + u32 and an
// absolute 2⁻¹⁵⁰ an element, so B_i ≤ (1 + u32)·B with
// B = ‖u‖·maxNorm + maxBias, up to 2⁻¹⁵⁰·n·(1 + ‖u‖) that the underflow
// term below takes. Three errors separate s̃ from s, the exact kernel's
// score, and each is a multiple of B_i:
//
//   - the exact kernel against the real sum: each of its n terms goes
//     through one product rounding and at most d additions in float64, so
//     |s − S| ≤ γ64(n)·B_i with γ(n) = n·u/(1 − n·u);
//   - quantisation: ũ_k = u_k(1+α), ṽ_ik = v_ik(1+β), b̃_i = b_i(1+η), each
//     |·| ≤ u32 (β = 0 on float32 rows), moves the real sum by at most
//     (2·u32 + u32²)·B_i;
//   - float32 arithmetic: the kernel's association is a tree over the n
//     terms of depth at most d, after one product rounding, so it adds at
//     most γ32(n)·Σ(|ũ·ṽ| + |b̃|) ≤ γ32(n)·(1+u32)²·B_i.
//
// With n·u32 ≤ 2⁻¹⁰ (d < 16 383; beyond it E is +Inf and nothing is
// skipped) the sum of the three, times 1 + u32, is below
// u32·(1.01·n + 2.01)·B, and
//
//	c = 2⁻²³·(n + 3) = u32·(2n + 6)
//
// covers it with u32·(0.99·n + 3.99) to spare. The spare absorbs what the
// inequality chain does not see: E, ‖u‖ and maxNorm are themselves
// computed in float64 (relative error below (d+8)·u64), and the survivor
// test compares s̃ against floor − E rounded to float64 — an error of at
// most (|floor| + E)·u64, which matters only when |floor| ≤ 2·B (a floor
// further below −2·B is below every s̃ of a finite row as it is, and one
// above 2·B is above every s). Gradual underflow adds an absolute error the
// relative terms do not cover: a product or a conversion that lands in
// float32's subnormal range is off by up to 2⁻¹⁵⁰, a quantised u_k or
// v_ik carries that into its d products, so with the maxima's own share
// all of it is below 2⁻¹⁴⁷·n·(1 + ‖u‖ + maxNorm), and E adds twice that:
//
//	E(u) = 2⁻²³·(d+4)·(‖u‖·maxNorm + maxBias) + 2⁻¹⁴⁶·(d+1)·(1 + ‖u‖ + maxNorm)
//
// FuzzBoundF32 and TestBoundCoversTheExactScore hold |s̃ − s| ≤ E, the
// difference computed exactly, over raw bit patterns and over cancelling,
// subnormal and out-of-range catalogs.
//
// Non-finite values need no bound. A row whose float32 image has a NaN or
// ±Inf (a float64 value beyond float32's range included) makes s̃ a NaN or
// ±Inf whatever the finite query, so it always survives, and it is left out
// of maxNorm and maxBias. A query with a NaN or ±Inf, or one whose norm
// overflows, makes E a NaN or +Inf, the threshold floor − E a NaN or −Inf,
// and every row survives: the scan degrades to the exact one.

// Bound is the filter's view of one catalog: its rows' float32 image and
// the two maxima E needs. It is read-only after construction and safe for
// concurrent use.
type Bound struct {
	d       int
	v, b    []float32 // row-major image, d a row; b nil without biases
	maxNorm float64   // largest ‖Ṽ_i‖ over the rows whose image is finite
	maxBias float64   // largest |b̃_i| over those rows
}

// BoundOverF32 is the bound over float32 rows: the image is v and b
// themselves, not a copy.
func BoundOverF32(v, b []float32, d int) *Bound {
	bd := &Bound{d: d, v: v, b: b}
	bd.measure()
	return bd
}

// BoundOverF64 is the bound over float64 rows: the image is a float32 copy,
// a shadow of 4·(d+1) bytes a row built here.
func BoundOverF64(v, b []float64, d int) *Bound {
	bd := &Bound{d: d, v: narrow(v)}
	if b != nil {
		bd.b = narrow(b)
	}
	bd.measure()
	return bd
}

// measure sets maxNorm and maxBias over the rows whose image is finite,
// on the image (see the derivation above). A row's squared norm, summed in
// float64, is finite exactly when every element of its image is: a float32
// squared is below 2²⁵⁶.
func (bd *Bound) measure() {
	var max2, maxBias float64
	for i := range bd.rows() {
		row := bd.v[i*bd.d : (i+1)*bd.d]
		norm2 := DotF32(row, row)
		var bias float64
		if bd.b != nil {
			bias = math.Abs(float64(bd.b[i]))
		}
		if norm2-norm2 != 0 || bias-bias != 0 {
			continue
		}
		if norm2 > max2 {
			max2 = norm2
		}
		if bias > maxBias {
			maxBias = bias
		}
	}
	bd.maxNorm, bd.maxBias = math.Sqrt(max2), maxBias
}

func narrow(xs []float64) []float32 {
	out := make([]float32, len(xs))
	for i, x := range xs {
		out[i] = float32(x)
	}
	return out
}

func (bd *Bound) rows() int {
	if bd.d <= 0 {
		return 0
	}
	return len(bd.v) / bd.d
}

// Query writes u's float32 image into dst, which must hold len(u)
// elements, and returns E(u): for every row whose image is finite, the
// exact score and the bound scan's differ by at most E.
func (bd *Bound) Query(u []float64, dst []float32) float64 {
	for k, x := range u {
		dst[k] = float32(x)
	}
	n := float64(len(u) + 1)
	if n > 1<<14 {
		return math.Inf(1)
	}
	norm := math.Sqrt(Norm2Sq(u))
	return 0x1p-23*(n+3)*(norm*bd.maxNorm+bd.maxBias) + 0x1p-146*n*(1+norm+bd.maxNorm)
}

// Scan writes the bound scan of rows [lo, hi) under the float32 query u
// (a Query image) into out, which must hold hi-lo scores.
func (bd *Bound) Scan(u []float32, lo, hi int, out []float64) {
	var b []float32
	if bd.b != nil {
		b = bd.b[lo:hi]
	}
	BoundF32(u, bd.v[lo*bd.d:hi*bd.d], b, out)
}

// BoundF32 scores a row-major float32 catalog under a float32 query in
// float32: with d = len(u) and n = len(out), out[j] is s̃ of row j, the
// float32 sum
//
//	((s0+s4)+(s1+s5)) + ((s2+s6)+(s3+s7))  +  u[k]·v[k] for k ≥ d&^7, in order  +  b[j]
//
// where s_l is the sum, in k order, of the products u[k]·v[k] of
// k ≡ l mod 8 below d&^7 (the tree is +0 when d < 8), every product and
// every sum rounded to float32, widened to float64 at the end; the bias
// term is dropped when b is nil. v must hold exactly n*d elements and a
// non-nil b exactly n; anything else is a caller bug and panics before a
// single row is read. On amd64 with AVX the rows are scored eight a pass
// by scan_amd64.s — lane l of row r's register is s_l — and the n mod 8
// left over by boundGo.
func BoundF32(u, v, b []float32, out []float64) {
	if len(v) != len(out)*len(u) || (b != nil && len(b) != len(out)) {
		panic(fmt.Sprintf("mathx: BoundF32 over %d rows of %d: len(v) = %d, len(b) = %d", len(out), len(u), len(v), len(b)))
	}
	boundF32(u, v, b, out)
}

// boundGo is BoundF32's specification, and its body wherever the AVX
// kernel is not available. Every product is converted to float32 on its
// own, which the Go specification says rounds it: the compiler may not
// fuse it into the add (at GOAMD64=v3 it could otherwise), and the kernel
// does not either.
func boundGo(u, v, b []float32, out []float64) {
	d := len(u)
	d8 := d &^ 7
	for j := range out {
		row := v[j*d : (j+1)*d]
		var s float32
		k := 0
		if d8 > 0 {
			s0, s1, s2, s3 := float32(u[0]*row[0]), float32(u[1]*row[1]), float32(u[2]*row[2]), float32(u[3]*row[3])
			s4, s5, s6, s7 := float32(u[4]*row[4]), float32(u[5]*row[5]), float32(u[6]*row[6]), float32(u[7]*row[7])
			for k = 8; k < d8; k += 8 {
				s0 += float32(u[k] * row[k])
				s1 += float32(u[k+1] * row[k+1])
				s2 += float32(u[k+2] * row[k+2])
				s3 += float32(u[k+3] * row[k+3])
				s4 += float32(u[k+4] * row[k+4])
				s5 += float32(u[k+5] * row[k+5])
				s6 += float32(u[k+6] * row[k+6])
				s7 += float32(u[k+7] * row[k+7])
			}
			s = ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7))
		}
		for ; k < d; k++ {
			s += float32(u[k] * row[k])
		}
		if b != nil {
			s += b[j]
		}
		out[j] = float64(s)
	}
}
