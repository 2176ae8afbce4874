package mathx

import (
	"fmt"
	"math"
)

// The bound filter. A top-k scan keeps k rows of a catalog and ignores the
// rest, and the exact kernels (ScanF64, ScanF64F32) pay for float64 bits on
// every row they ignore: per 16-wide row, four converts, four multiplies
// and four adds, which is where the scan's time goes — the catalog is in
// L2, the execution ports are the limit. BoundI8 scores the same rows from
// an int8 image as s̃, 32 byte products an instruction; a row can then
// only place if s̃ is within E of the selector's floor, and only those rows
// are rescored by the exact kernel. The answer is the exact scan's, bit for
// bit, because a row that is skipped provably scores below the floor.
//
// The image. Over the rows whose values and bias are all finite (below:
// the finite rows; a float64 bias float32 cannot hold is not finite here),
// M_k = max_i |v_ik| and c_k = M_k/127 per dimension; row i stores
// q_ik = round(v_ik/c_k), clamped to [−127, 127] and 0 where c_k = 0, as
// the byte q_ik + 128, in rows of 16·⌈d/16⌉ bytes padded with 128; its bias
// is stored as a float32. The residual ρ_k = max_i |v_ik − c_k·q_ik| and
// Lmax = max_i Σ_k |q_ik| are measured, so nothing depends on how q was
// rounded. A query u becomes w_k = u_k·c_k, Δ = float32(max_k |w_k|/63) and
// p_k = round(w_k/Δ) clamped to [−63, 63] (0 where Δ = 0), and
// e_q = max_k |w_k − Δ·p_k| is measured too. With 7-bit p and 8-bit
// unsigned bytes, VPMADDUBSW's 16-bit pair sums, at most 2·255·63, cannot
// saturate. The kernel's score is
//
//	s̃_i = float32(float32(I_i · Δ) + b̃_i),  I_i = Σ_k p_k·q_ik,
//
// I_i an exact integer, |I_i| ≤ 63·127·d ≤ 2²⁴ while d ≤ maxBoundDim, so
// converting it to float32 is exact too.
//
// The bound. Write u32 = 2⁻²⁴, u64 = 2⁻⁵³, and for the finite rows
// R = Σ_k |u_k|·(M_k + ρ_k) + maxBias, maxBias = max_i |b_i| (b_i the
// catalog's own bias). Since v_ik = c_k·q_ik + r_ik with |r_ik| ≤ ρ_k,
//
//	Σ_k u_k·v_ik − Δ·I_i = Σ_k (w_k − Δ·p_k)·q_ik + Σ_k u_k·r_ik,
//
// so the real sum and Δ·I_i differ by at most e_q·Lmax + Σ_k |u_k|·ρ_k — the
// two terms E is made of. Everything else is rounding, each a multiple of R
// or of e_q·Lmax:
//
//   - the exact kernel against the real sum S_i: n = d+1 terms, one product
//     rounding and at most d additions in float64, |s − S| ≤ γ64(n)·R with
//     γ(n) = n·u/(1 − n·u) (Σ|u_k·v_ik| ≤ Σ|u_k|·M_k);
//   - the two float32 roundings of s̃, and b̃_i = float32(b_i) on a float64
//     catalog: at most 2·u32·|Δ·I_i| + u32·(|b̃_i| + |b_i|), where
//     |Δ·I_i| ≤ (1 + u64)·Σ|u_k|·(M_k + ρ_k) + e_q·Lmax;
//   - w_k, ρ_k and e_q are float64 values: w_k is off by u64·|w_k|, which
//     moves Σ w_k·q_ik by u64·Σ|u_k|·(M_k + ρ_k); c_k·q_ik and the residual
//     subtraction are exact or relative (a subnormal product of a float64
//     and a small integer is exact), so the true residual exceeds the
//     measured ρ_k by at most 2·u64·(M_k + ρ_k); e_q by at most u64·e_q.
//
// With d ≤ maxBoundDim, γ64(n) < 2⁻⁴¹, and the sum of the three is below
// 2⁻²³·(1 + 2⁻¹⁷)·(R + e_q·Lmax). E takes 2⁻²¹·R and 2⁻²⁰ of the two
// main terms, four and eight times that; the spare absorbs E's own float64
// rounding (relative, below 2⁻⁴⁰) and that of the survivor test's
// floor − E, at most (|floor| + E)·u64, which matters only while
// |floor| ≤ 2·R (a lower floor is below every s̃ of a finite row, a higher
// one above every s). Gradual underflow adds absolute errors the relative
// terms do not cover: float32(I·Δ) and b̃_i are off by up to 2⁻¹⁵⁰ each in
// float32's subnormal range (a sum that lands there is exact), and the
// float64 products by 2⁻¹⁰⁷⁵·(d + Lmax) all told; 2⁻¹⁴⁶ covers them:
//
//	E(u) = (Σ_k |u_k|·ρ_k + e_q·Lmax)·(1 + 2⁻²⁰) + 2⁻²¹·R + 2⁻¹⁴⁶
//
// E is +Inf when R exceeds 2¹⁰⁰⁰, so that where s̃ and E are finite the
// exact kernel cannot overflow either, and past maxBoundDim.
// TestBoundCoversTheExactScore and FuzzBoundI8 hold |s̃ − s| ≤ E, the
// difference computed exactly, over gaussian, cancelling, exactly
// quantised, subnormal and out-of-range catalogs and raw bit patterns.
//
// Non-finite values need no bound. A row that is not finite gets a NaN
// bias, so its s̃ is NaN and it always survives, and it is left out of every
// maximum above. A query with a NaN or ±Inf, or whose w_k or Δ overflows,
// has E = +Inf, the threshold floor − E is −Inf or NaN, and every row
// survives: the scan degrades to the exact one.

// maxBoundDim is the largest d for which |Σ_k p_k·q_ik| ≤ 63·127·d stays
// within 2²⁴, where float32 holds every integer exactly.
const maxBoundDim = (1 << 24) / (63 * 127)

// Bound is the filter's view of one catalog: its int8 image and what E
// needs. It is read-only after construction and safe for concurrent use.
type Bound struct {
	d, stride int
	q         []uint8   // q_ik + 128, stride bytes a row, padded with 128
	b         []float32 // one bias a row; NaN for a row that is not finite
	scale     []float64 // c_k
	mag       []float64 // M_k
	rho       []float64 // ρ_k
	lmax      float64   // Lmax
	maxBias   float64   // largest |b_i| over the finite rows
}

// BoundOverF32 is the bound over float32 rows, d a row; b may be nil.
func BoundOverF32(v, b []float32, d int) *Bound { return newBound(v, b, d) }

// BoundOverF64 is the bound over float64 rows, d a row; b may be nil.
func BoundOverF64(v, b []float64, d int) *Bound { return newBound(v, b, d) }

// newBound builds the image in two passes over the rows: the maxima, then
// the bytes and residuals.
func newBound[T float32 | float64](v, b []T, d int) *Bound {
	n := 0
	if d > 0 {
		n = len(v) / d
	}
	stride := 16 * ((d + 15) / 16)
	bd := &Bound{
		d: d, stride: stride,
		q: make([]uint8, n*stride), b: make([]float32, n),
		scale: make([]float64, d), mag: make([]float64, d), rho: make([]float64, d),
	}
	nan := float32(math.NaN())
	for i := 0; i < n; i++ {
		row := v[i*d : (i+1)*d]
		var bias float64
		if b != nil {
			bias = float64(b[i])
		}
		bd.b[i] = float32(bias)
		finite := bd.b[i]-bd.b[i] == 0
		for _, x := range row {
			finite = finite && x-x == 0
		}
		if !finite {
			bd.b[i] = nan
			continue
		}
		bd.maxBias = max(bd.maxBias, math.Abs(bias))
		for k, x := range row {
			if a := math.Abs(float64(x)); a > bd.mag[k] {
				bd.mag[k] = a
			}
		}
	}
	for k, m := range bd.mag {
		bd.scale[k] = m / 127
	}
	for j := range bd.q {
		bd.q[j] = 128
	}
	for i := 0; i < n; i++ {
		if bd.b[i] != bd.b[i] {
			continue // not finite: q = 0
		}
		row, img := v[i*d:(i+1)*d], bd.q[i*stride:i*stride+d]
		var l float64
		for k, x := range row {
			c, xf, q := bd.scale[k], float64(x), 0.0
			if c > 0 {
				q = math.RoundToEven(xf / c)
			}
			if q > 127 || q < -127 {
				q = math.Copysign(127, q)
			}
			img[k] = uint8(int(q) + 128)
			if r := math.Abs(xf - c*q); r > bd.rho[k] {
				bd.rho[k] = r
			}
			l += math.Abs(q)
		}
		bd.lmax = max(bd.lmax, l)
	}
	return bd
}

// Stride is the length of a query image: 16·⌈d/16⌉.
func (bd *Bound) Stride() int { return bd.stride }

// Query writes u's image p_k into p, which must hold Stride() elements
// (zero past d), and returns its scale Δ and E(u): for every finite row,
// the exact score and the bound scan's differ by at most E.
func (bd *Bound) Query(u []float64, p []int8) (delta float32, tol float64) {
	clear(p)
	inf := math.Inf(1)
	if bd.d > maxBoundDim {
		return 0, inf
	}
	var maxW float64
	for k, x := range u {
		if x-x != 0 {
			return 0, inf
		}
		maxW = max(maxW, math.Abs(x*bd.scale[k]))
	}
	delta = float32(maxW / 63)
	if delta-delta != 0 {
		return 0, inf // a w_k or Δ beyond range
	}
	var quant, eq, r float64
	for k, x := range u {
		w, pk := x*bd.scale[k], 0.0
		if delta > 0 {
			pk = max(-63, min(63, math.RoundToEven(w/float64(delta))))
		}
		p[k] = int8(pk)
		eq = max(eq, math.Abs(w-float64(delta)*pk))
		ax := math.Abs(x)
		quant += ax * bd.rho[k]
		r += ax * (bd.mag[k] + bd.rho[k])
	}
	if r += bd.maxBias; !(r <= 0x1p1000) {
		return delta, inf
	}
	return delta, (quant+eq*bd.lmax)*(1+0x1p-20) + 0x1p-21*r + 0x1p-146
}

// Scan writes the bound scan of rows [lo, hi) under the query image p and
// its scale delta (a Query result) into out, which must hold hi-lo scores.
func (bd *Bound) Scan(p []int8, delta float32, lo, hi int, out []float64) {
	BoundI8(p, delta, bd.q[lo*bd.stride:hi*bd.stride], bd.b[lo:hi], out)
}

// BoundI8 scores an int8 catalog image under an int8 query: with
// dp = len(p), a multiple of 16, and n = len(out), out[j] is
//
//	float64(float32(float32(float32(I_j) · delta) + b[j])),
//	I_j = Σ_k p[k]·q[j·dp+k] − 128·Σ_k p[k]
//
// in int32 arithmetic: row j's bytes are q_jk + 128, so I_j is Σ p_k·q_jk.
// The product and the sum are rounded to float32 one at a time, never
// fused. q must hold exactly n·dp bytes, b exactly n biases, and every p[k]
// must lie in [−63, 63], where the kernel's 16-bit pair sums cannot
// saturate; anything else is a caller bug and panics before a row is read.
// On amd64 with AVX2 the rows are scored eight a pass by scan_amd64.s and
// the n mod 8 left over by boundI8Go.
func BoundI8(p []int8, delta float32, q []uint8, b []float32, out []float64) {
	if len(p)%16 != 0 || len(q) != len(out)*len(p) || len(b) != len(out) {
		panic(fmt.Sprintf("mathx: BoundI8 over %d rows of %d: len(q) = %d, len(b) = %d", len(out), len(p), len(q), len(b)))
	}
	var sum int32
	for _, x := range p {
		if x < -63 || x > 63 {
			panic(fmt.Sprintf("mathx: BoundI8 query element %d outside [-63, 63]", x))
		}
		sum += int32(x)
	}
	boundI8(p, delta, sum, q, b, out)
}

// boundI8Go is BoundI8's specification, and its body wherever the AVX2
// kernel is not available; sum is Σ p[k]. The product is converted to
// float32 on its own, which the Go specification says rounds it: the
// compiler may not fuse it into the add (at GOAMD64=v3 it could
// otherwise), and the kernel does not either.
func boundI8Go(p []int8, delta float32, sum int32, q []uint8, b []float32, out []float64) {
	dp := len(p)
	for j := range out {
		row := q[j*dp:][:dp]
		var dot int32
		for k, x := range p {
			dot += int32(x) * int32(row[k])
		}
		s := float32(float32(dot-128*sum) * delta)
		out[j] = float64(s + b[j])
	}
}
