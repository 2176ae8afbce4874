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
// an int8 image as s̃, 32 byte products an instruction, and answers the
// floor test itself: a row can only place if s̃ is not below the selector's
// floor minus E, and only the rows whose bit it sets are rescored by the
// exact kernel. The answer is the exact scan's, bit for bit, because a row
// that is skipped provably scores below the floor.
//
// The image. Over the rows whose values and bias are all finite (below:
// the finite rows; a float64 bias float32 cannot hold is not finite here),
// M_k = max_i |v_ik| and c_k = M_k/127 per dimension; row i stores
// q_ik = round(v_ik/c_k), clamped to [−127, 127] and 0 where c_k = 0, as
// the byte q_ik + 128, in 4·⌈d/4⌉ bytes padded with 128; its bias is stored
// as a float32. The bytes are laid out for the kernel, not by row: the
// rows go in blocks of 16 (the last padded with q = 0 rows), and within a
// block every 8 rows × 4 dimensions are one 32-byte group, row r's four
// bytes at offset 4r (imageByte). The residual ρ_k = max_i |v_ik − c_k·q_ik|
// and Lmax = max_i Σ_k |q_ik| are measured, so nothing depends on how q was
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
//
// The threshold. The survivor test is FirstNotBelow's predicate over the
// widened s̃ against T = floor − E, a float64: s̃ is not below T, or not
// finite. The kernel compares in float32, against T32, the smallest
// float32 not below T (T itself when T is NaN, +Inf above float32's range,
// −MaxFloat32 below it). For a float32 x, x < T exactly when x < T32 — an
// x below T is below T32 ≥ T, and an x below T32 cannot be a float32 at or
// above T, which T32 is the least of — so the mask is the float64
// predicate bit for bit, and E needs no term for it.

// maxBoundDim is the largest d for which |Σ_k p_k·q_ik| ≤ 63·127·d stays
// within 2²⁴, where float32 holds every integer exactly.
const maxBoundDim = (1 << 24) / (63 * 127)

// Bound is the filter's view of one catalog: its int8 image and what E
// needs. It is read-only after construction and safe for concurrent use.
type Bound struct {
	n, d, stride int
	q            []uint8   // q_ik + 128 in imageByte's layout, padded with 128
	b            []float32 // one bias a row, 16 a block; NaN for a row that is not finite
	scale        []float64 // c_k
	mag          []float64 // M_k
	rho          []float64 // ρ_k
	lmax         float64   // Lmax
	maxBias      float64   // largest |b_i| over the finite rows
}

// blockRows is the image's block: the kernel scores 16 rows together and
// sets their 16 mask bits at once.
const blockRows = 16

// imageByte is the offset of row i's byte for dimension k in an image of
// stride bytes a row: blocks of 16 rows, each a run of 64-byte groups, one
// per four dimensions, whose first 32 bytes hold rows 0..7 of the block and
// the last 32 rows 8..15, four bytes a row.
func imageByte(stride, i, k int) int {
	return i/blockRows*blockRows*stride + k/4*64 + i%blockRows*4 + k%4
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
	padded := (n + blockRows - 1) / blockRows * blockRows
	stride := 4 * ((d + 3) / 4)
	bd := &Bound{
		n: n, d: d, stride: stride,
		q: make([]uint8, padded*stride), b: make([]float32, padded),
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
		row := v[i*d : (i+1)*d]
		var l float64
		for k, x := range row {
			c, xf, q := bd.scale[k], float64(x), 0.0
			if c > 0 {
				q = math.RoundToEven(xf / c)
			}
			if q > 127 || q < -127 {
				q = math.Copysign(127, q)
			}
			bd.q[imageByte(stride, i, k)] = uint8(int(q) + 128)
			if r := math.Abs(xf - c*q); r > bd.rho[k] {
				bd.rho[k] = r
			}
			l += math.Abs(q)
		}
		bd.lmax = max(bd.lmax, l)
	}
	return bd
}

// WithBias is bd over the same rows under the biases b, one a row: it
// shares bd's image and rebuilds only what depends on the biases, the
// float32 biases and maxBias. Under biases that float32 holds it is, field
// for field, the bound BoundOverF64 would build over bd's rows and b. A row
// bd left out of the image stays out, and a row whose new bias is not
// finite (in float32) gets a NaN bias, so it always survives; its bytes
// stay in the image and in the maxima, where they only cover more than the
// finite rows need.
func (bd *Bound) WithBias(b []float64) *Bound {
	if len(b) != bd.n {
		panic(fmt.Sprintf("mathx: WithBias: %d biases for %d rows", len(b), bd.n))
	}
	nb := *bd
	nb.b, nb.maxBias = make([]float32, len(bd.b)), 0
	nan := float32(math.NaN())
	for i, x := range b {
		f := float32(x)
		if f-f != 0 || bd.b[i] != bd.b[i] {
			nb.b[i] = nan
			continue
		}
		nb.b[i] = f
		nb.maxBias = max(nb.maxBias, math.Abs(x))
	}
	return &nb
}

// Stride is the length of a query image: 4·⌈d/4⌉.
func (bd *Bound) Stride() int { return bd.stride }

// Query writes u's image p_k into p, which must hold Stride() elements
// (zero past d), and returns its scale Δ and E(u): for every finite row,
// the exact score and the bound scan's differ by at most E.
//
// The clamps and maxima are plain comparisons, not the builtin max and
// min, whose NaN and signed-zero cases cost more than the rest of the
// query: past the finiteness test nothing compared here is NaN, and
// every maximum is over absolute values, so the results are the same bits.
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
		if a := math.Abs(x * bd.scale[k]); a > maxW {
			maxW = a
		}
	}
	delta = float32(maxW / 63)
	if delta-delta != 0 {
		return 0, inf // a w_k or Δ beyond range
	}
	var quant, eq, r float64
	for k, x := range u {
		w, pk := x*bd.scale[k], 0.0
		if delta > 0 {
			pk = math.RoundToEven(w / float64(delta))
			if pk > 63 {
				pk = 63
			} else if pk < -63 {
				pk = -63
			}
		}
		p[k] = int8(pk)
		if e := math.Abs(w - float64(delta)*pk); e > eq {
			eq = e
		}
		ax := math.Abs(x)
		quant += ax * bd.rho[k]
		r += ax * (bd.mag[k] + bd.rho[k])
	}
	if r += bd.maxBias; !(r <= 0x1p1000) {
		return delta, inf
	}
	return delta, (quant+eq*bd.lmax)*(1+0x1p-20) + 0x1p-21*r + 0x1p-146
}

// Scan runs the survivor test over rows [lo, hi) under the query image p
// and its scale delta (a Query result) against the threshold thr — the
// selector's floor minus E — and returns the first ⌈(hi−lo)/64⌉ words of
// mask: bit j of word j/64 is set exactly when row lo+j survives, its bound
// score not a finite value below thr (FirstNotBelow's predicate), and every
// bit past hi−lo is clear. mask must hold (hi−lo)/64 + 2 words: the kernel
// scores the whole blocks that hold [lo, hi).
func (bd *Bound) Scan(p []int8, delta float32, thr float64, lo, hi int, mask []uint64) []uint64 {
	if hi <= lo {
		return mask[:0]
	}
	first, end := lo/blockRows, (hi+blockRows-1)/blockRows
	block := blockRows * bd.stride
	BoundI8(p, delta, thr, bd.q[first*block:end*block], bd.b[first*blockRows:end*blockRows], mask)
	n, words := (end-first+3)/4, (hi-lo+63)/64
	if s := uint(lo % blockRows); s > 0 { // bit j is row first·16 + j: move row lo to bit 0
		for w := 0; w < words; w++ {
			next := uint64(0)
			if w+1 < n {
				next = mask[w+1]
			}
			mask[w] = mask[w]>>s | next<<(64-s)
		}
	}
	if r := (hi - lo) % 64; r > 0 {
		mask[words-1] &= 1<<r - 1
	}
	return mask[:words]
}

// BoundI8 runs the survivor test over an int8 catalog image under an int8
// query: with dp = len(p), a multiple of 4, and n = len(b), a multiple of
// 16, row j's bound score is
//
//	s̃_j = float32(float32(float32(I_j) · delta) + b[j]),
//	I_j = Σ_k p[k]·(q_jk + 128) − 128·Σ_k p[k]
//
// in int32 arithmetic, where q_jk + 128 is the byte at imageByte(dp, j, k)
// of q, so I_j is Σ p_k·q_jk; the product and the sum are rounded to float32
// one at a time, never fused. BoundI8 sets bit j%64 of mask[j/64] exactly
// when s̃_j is not a finite value below thr — FirstNotBelow's predicate over
// the widened score — and clears it otherwise. q must hold exactly n·dp
// bytes, mask at least ⌈n/64⌉ words, and every p[k] must lie in [−63, 63],
// where the kernel's 16-bit pair sums cannot saturate; anything else is a
// caller bug and panics before a row is read. On amd64 with AVX2 the
// blocks are scored by scan_amd64.s, every one of them.
func BoundI8(p []int8, delta float32, thr float64, q []uint8, b []float32, mask []uint64) {
	n := len(b)
	if len(p)%4 != 0 || n%blockRows != 0 || len(q) != n*len(p) || len(mask) < (n+63)/64 {
		panic(fmt.Sprintf("mathx: BoundI8 over %d rows of %d: len(q) = %d, len(mask) = %d", n, len(p), len(q), len(mask)))
	}
	var sum int32
	for _, x := range p {
		if x < -63 || x > 63 {
			panic(fmt.Sprintf("mathx: BoundI8 query element %d outside [-63, 63]", x))
		}
		sum += int32(x)
	}
	boundI8(p, delta, sum, thr, q, b, mask[:(n+63)/64])
}

// boundI8Go is the specification of s̃: out[j] is row j's bound score,
// widened, over an image in imageByte's layout, whole blocks of it; sum is
// Σ p[k]. Within a group row r's four bytes are at 4r, so a block's 16
// sums are kept side by side, as the kernel keeps them. The product is
// converted to float32 on its own, which the Go specification says rounds
// it: the compiler may not fuse it into the add (at GOAMD64=v3 it could
// otherwise), and the kernel does not either.
func boundI8Go(p []int8, delta float32, sum int32, q []uint8, b []float32, out []float64) {
	block := blockRows * len(p)
	for k := 0; k < len(out)/blockRows; k++ {
		var dot [blockRows]int32
		for g := 0; g < len(p)/4; g++ {
			pg, img := p[4*g:4*g+4], q[k*block+64*g:][:64]
			for r := range dot {
				row := img[4*r : 4*r+4]
				dot[r] += int32(pg[0])*int32(row[0]) + int32(pg[1])*int32(row[1]) +
					int32(pg[2])*int32(row[2]) + int32(pg[3])*int32(row[3])
			}
		}
		for r, x := range dot {
			s := float32(float32(x-128*sum) * delta)
			out[k*blockRows+r] = float64(s + b[k*blockRows+r])
		}
	}
}

// boundMaskGo is BoundI8's body wherever the AVX2 kernel is not available:
// boundI8Go's scores under firstNotBelowGo's predicate, a block at a time.
func boundMaskGo(p []int8, delta float32, sum int32, thr float64, q []uint8, b []float32, mask []uint64) {
	clear(mask)
	block := blockRows * len(p)
	var s [blockRows]float64
	for k := 0; k < len(b)/blockRows; k++ {
		boundI8Go(p, delta, sum, q[k*block:(k+1)*block], b[k*blockRows:(k+1)*blockRows], s[:])
		for r := range s {
			if i := k*blockRows + r; firstNotBelowGo(s[r:r+1], thr) == 0 {
				mask[i/64] |= 1 << (i % 64)
			}
		}
	}
}
