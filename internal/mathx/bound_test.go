package mathx

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"testing"
)

// boundScores is the specification's s̃ of every row of bd's image, padding
// included, under the query image p and its scale.
func boundScores(bd *Bound, p []int8, delta float32) []float64 {
	out := make([]float64, len(bd.b))
	boundI8Go(p, delta, querySum(p), bd.q, bd.b, out)
	return out
}

func querySum(p []int8) int32 {
	var sum int32
	for _, x := range p {
		sum += int32(x)
	}
	return sum
}

// specBit is the survivor test's specification for one score: FirstNotBelow's
// predicate, s not a finite value below thr.
func specBit(s, thr float64) bool { return firstNotBelowGo([]float64{s}, thr) == 0 }

// sameMask fails unless the first ⌈n/64⌉ words of got set bit j exactly
// where specBit(scores[j], thr) holds, for j < n, and nothing past n.
func sameMask(t *testing.T, label string, got []uint64, scores []float64, n int, thr float64) {
	t.Helper()
	for w := 0; w < (n+63)/64; w++ {
		var want uint64
		for j := w * 64; j < min(n, w*64+64); j++ {
			if specBit(scores[j], thr) {
				want |= 1 << (j % 64)
			}
		}
		if got[w] != want {
			diff := got[w] ^ want
			j := w*64 + bits.TrailingZeros64(diff)
			t.Fatalf("%s: thr %v (%#x): mask word %d = %#x, specification %#x; row %d, s̃ = %v (%#x)",
				label, thr, math.Float64bits(thr), w, got[w], want, j, scores[j], math.Float64bits(scores[j]))
		}
	}
}

// boundThresholds are the thresholds a mask is checked at: NaN, ±Inf,
// ±1e300 and zero, and for each of the given rows its own score (a tie,
// kept), the next float64 above it (dropped, where rounding the threshold
// to float32 to nearest or down would keep it) and the next below.
func boundThresholds(scores []float64, rows []int) []float64 {
	thr := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 0}
	for _, j := range rows {
		s := scores[j]
		thr = append(thr, s, math.Nextafter(s, math.Inf(1)), math.Nextafter(s, math.Inf(-1)))
	}
	return thr
}

// sampleRows is every row of a small image and eight random ones of a
// large one.
func sampleRows(rng *RNG, n int) []int {
	if n <= 48 {
		rows := make([]int, n)
		for j := range rows {
			rows[j] = j
		}
		return rows
	}
	rows := make([]int, 8)
	for j := range rows {
		rows[j] = rng.Intn(n)
	}
	return rows
}

// sameBound fails unless BoundI8 — the AVX2 kernel where the host has one —
// sets the mask bits the specification sets, over the image of bd at
// every threshold of boundThresholds for the rows of sampleRows, the mask
// filled with a canary beforehand and one canary word past it; twice a
// call, boundMaskGo, the portable body, is held to the specification too.
func sameBound(t *testing.T, label string, rng *RNG, bd *Bound, p []int8, delta float32) {
	t.Helper()
	n := len(bd.b)
	scores := boundScores(bd, p, delta)
	words := (n + 63) / 64
	mask := make([]uint64, words+1)
	const canary = 0xdeadbeefcafef00d
	for i, thr := range boundThresholds(scores, sampleRows(rng, n)) {
		for w := range mask {
			mask[w] = canary // every bit of the mask must be written
		}
		BoundI8(p, delta, thr, bd.q, bd.b, mask[:words])
		sameMask(t, label, mask, scores, n, thr)
		if mask[words] != canary {
			t.Fatalf("%s: BoundI8 wrote past its mask: %#x", label, mask[words])
		}
		if i == 0 || i == 6 {
			boundMaskGo(p, delta, querySum(p), thr, bd.q, bd.b, mask[:words])
			sameMask(t, label+" portable", mask, scores, n, thr)
		}
	}
}

// randImage is a Bound over n random rows of d bytes in the image — biases
// random float32 values — with q and b moved to start off elements into
// their buffers, and a random query image of its stride.
func randImage(rng *RNG, d, n, off int) (*Bound, []int8) {
	stride := 4 * ((d + 3) / 4)
	padded := (n + blockRows - 1) / blockRows * blockRows
	bd := &Bound{d: d, stride: stride}
	bd.q = make([]uint8, off+padded*stride)[off:]
	for j := range bd.q {
		bd.q[j] = 128
	}
	for i := 0; i < n; i++ {
		for k := 0; k < d; k++ {
			bd.q[imageByte(stride, i, k)] = uint8(rng.Intn(256))
		}
	}
	bd.b = append(make([]float32, off), randF32(rng, padded)...)[off:]
	p := make([]int8, stride)
	for k := 0; k < d; k++ {
		p[k] = int8(rng.Intn(127) - 63)
	}
	return bd, p
}

// boundDeltas are the scales a query can have: ordinary, zero, float32's
// smallest subnormal, and one whose products overflow float32.
var boundDeltas = []float32{0.013, 0, math.SmallestNonzeroFloat32, 1e36}

// TestBoundI8MatchesPortable is the bound kernel's table: its mask against
// the specification's — boundI8Go's s̃ under FirstNotBelow's predicate — at
// NaN, ±Inf, ±1e300 and 0 and at sampled rows' own scores (a tie, kept),
// the next float64 above (dropped) and below. Every d from 1 to 67 (every
// number of four-byte groups, and every amount of padding in the last),
// 1 to 5 blocks and around the 512-row tile, q and b at odd offsets, under
// every scale of boundDeltas; a NaN, ±Inf, subnormal and MaxFloat32 bias
// in every row of two blocks (16 rows share a pass, and a special in one
// must not reach its neighbours' lanes); the saturation rows — every byte
// 255 or 1 (q = ±127) under every p = ±63, the largest pair sums
// VPMADDUBSW can be handed; an empty query over a block and an image of
// no rows, which never reach the kernel. Then Bound.Scan over row counts around the
// block and the tile and unaligned spans [lo, hi): the bits of exactly the
// span's rows, shifted to start at bit 0, the rest of the words clear.
func TestBoundI8MatchesPortable(t *testing.T) {
	t.Logf("AVX2 kernel in use: %v", useAVX2)
	rng := NewRNG(51)
	for d := 1; d <= 67; d++ {
		for _, blocks := range []int{1, 2, 3, 5, 32, 33} {
			for _, off := range []int{0, 1, 3} {
				bd, p := randImage(rng, d, blocks*blockRows, off)
				for _, delta := range boundDeltas {
					sameBound(t, fmt.Sprintf("random d=%d blocks=%d off=%d Δ=%g", d, blocks, off, delta), rng, bd, p, delta)
				}
				if blocks != 2 || off != 1 || d%4 != 1 {
					continue
				}
				for j := range bd.b {
					for _, x := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 1e-40, math.MaxFloat32} {
						old := bd.b[j]
						bd.b[j] = x
						sameBound(t, fmt.Sprintf("special bias %v in row %d, d=%d", x, j, d), rng, bd, p, 0.013)
						bd.b[j] = old
					}
				}
			}
		}
	}
	for _, dp := range []int{4, 16, 32, 64} {
		const n = 2 * blockRows
		bd := &Bound{d: dp, stride: dp, q: make([]uint8, n*dp), b: make([]float32, n)}
		for j := 0; j < n; j++ {
			for k := 0; k < dp; k++ {
				bd.q[imageByte(dp, j, k)] = uint8(255 - 254*(j%2))
			}
		}
		for _, x := range []int8{63, -63} {
			p := make([]int8, dp)
			for k := range p {
				p[k] = x
			}
			label := fmt.Sprintf("saturation dp=%d p=%d", dp, x)
			sameBound(t, label, rng, bd, p, 1)
			if s, want := boundScores(bd, p, 1), float64(int(x)*127*dp); s[0] != want || s[1] != -want {
				t.Errorf("%s: rows score %v, %v; want ±%v", label, s[0], s[1], want)
			}
		}
	}
	empty := &Bound{b: make([]float32, blockRows)}
	for j := range empty.b {
		empty.b[j] = float32(j + 1)
	}
	sameBound(t, "dp=0", rng, empty, nil, 1)
	sameBound(t, "n=0", rng, &Bound{d: 16, stride: 16}, make([]int8, 16), 1)

	for _, n := range []int{1, 2, 15, 16, 17, 31, 33, 100, 511, 512, 513, 530} {
		d := 1 + rng.Intn(20)
		bd := BoundOverF32(randF32(rng, n*d), randF32(rng, n), d)
		var q Query
		bd.Query(randF64(rng, d), &q)
		scores := boundScores(bd, q.image(), q.delta)
		spans := [][2]int{{0, n}, {1, n}, {min(3, n), max(min(3, n), n-2)}, {n / 3, n / 2}, {min(15, n), min(17, n)}, {n, n}}
		for range 6 {
			lo := rng.Intn(n)
			spans = append(spans, [2]int{lo, lo + rng.Intn(n-lo+1)})
		}
		for _, span := range spans {
			lo, hi := span[0], span[1]
			label := fmt.Sprintf("Scan n=%d d=%d [%d, %d)", n, d, lo, hi)
			words := (hi-lo)/64 + 2
			mask := make([]uint64, words+1)
			for _, thr := range boundThresholds(scores[lo:hi], sampleRows(rng, hi-lo)) {
				for w := range mask {
					mask[w] = 0xdeadbeefcafef00d
				}
				got := bd.Scan(&q, thr, lo, hi, mask[:words])
				if len(got) != (hi-lo+63)/64 {
					t.Fatalf("%s: %d mask words, want %d", label, len(got), (hi-lo+63)/64)
				}
				sameMask(t, label, got, scores[lo:hi], hi-lo, thr)
				if mask[words] != 0xdeadbeefcafef00d {
					t.Fatalf("%s: Scan wrote past its mask", label)
				}
			}
		}
	}
}

// TestBoundI8ShortSlicePanics: a q one element short (or long), a b that
// is not whole blocks, a mask short of a word, a query that is not whole
// four-byte groups, or one with an element outside [−63, 63], is refused
// before the kernel is handed a pointer; so is a Bound.Scan under a Query
// of another stride (or the zero Query) or into a short mask.
func TestBoundI8ShortSlicePanics(t *testing.T) {
	const n, dp = 2 * blockRows, 8
	p, q, b, mask := make([]int8, dp), make([]uint8, n*dp), make([]float32, n), make([]uint64, 1)
	wide := make([]int8, dp)
	wide[3] = 64
	bd, other := BoundOverF64(make([]float64, 100*dp), nil, dp), BoundOverF64(make([]float64, 100*12), nil, 12)
	var bq, oq Query
	bd.Query(make([]float64, dp), &bq)
	other.Query(make([]float64, 12), &oq)
	for name, call := range map[string]func(){
		"Scan, other stride": func() { bd.Scan(&oq, 0, 0, 64, make([]uint64, 3)) },
		"Scan, zero Query":   func() { bd.Scan(&Query{}, 0, 0, 64, make([]uint64, 3)) },
		"Scan, short mask":   func() { bd.Scan(&bq, 0, 1, 65, make([]uint64, 1)) },
		"q short":            func() { BoundI8(p, 1, 0, q[:n*dp-1], b, mask) },
		"q long":             func() { BoundI8(p, 1, 0, append(q, 0), b, mask) },
		"b ragged":           func() { BoundI8(p, 1, 0, q[:(n-1)*dp], b[:n-1], mask) },
		"b nil":              func() { BoundI8(p, 1, 0, q, nil, mask) },
		"mask short":         func() { BoundI8(p, 1, 0, q, b, nil) },
		"p ragged":           func() { BoundI8(p[:dp-1], 1, 0, q[:n*(dp-1)], b, mask) },
		"p wide":             func() { BoundI8(wide, 1, 0, q, b, mask) },
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
	BoundI8(p, 1, 0, q, b, mask)
	bd.Scan(&bq, 0, 1, 65, make([]uint64, 2))
}

// within reports |approx − exact| ≤ tol, decided exactly: the difference
// of two float64 values needs at most 2 098 bits.
func within(approx, exact, tol float64) bool {
	diff := new(big.Float).SetPrec(4096).Sub(big.NewFloat(approx), big.NewFloat(exact))
	return diff.Abs(diff).Cmp(big.NewFloat(tol)) <= 0
}

// checkBound holds the filter's contract over every row of bd under the
// query u: where the bound score s̃ and E are both finite, the exact score —
// exact(i), the representation's own one-row kernel — is finite too and
// within E of s̃; and Scan keeps the row against the threshold s − E, the
// lowest floor it must place at. A non-finite s̃ or E skips nothing, so it
// promises nothing.
func checkBound(t *testing.T, label string, bd *Bound, u []float64, n int, exact func(i int) float64) {
	t.Helper()
	var q Query
	bd.Query(u, &q)
	tol := q.Tol()
	var mask [2]uint64
	for i, st := range boundScores(bd, q.image(), q.delta)[:n] {
		if st-st != 0 || tol-tol != 0 {
			continue
		}
		s := exact(i)
		if s-s != 0 || !within(st, s, tol) {
			t.Fatalf("%s: row %d: bound scan %v (%#x), exact %v (%#x), E = %v", label, i, st, math.Float64bits(st), s, math.Float64bits(s), tol)
		}
		if bd.Scan(&q, s-tol, i, i+1, mask[:])[0] != 1 {
			t.Fatalf("%s: row %d: exact %v, E = %v: Scan drops it at the threshold s − E", label, i, s, tol)
		}
	}
}

// checkBoundF32 and checkBoundF64 build the bound the way score.Engine and
// retrieval.Index do, over float32 or float64 rows, and rescore exactly
// with ScanF64F32 or ScanF64.
func checkBoundF32(t *testing.T, label string, u []float64, v, b []float32) {
	t.Helper()
	d := len(u)
	one := make([]float64, 1)
	checkBound(t, label+" f32", BoundOverF32(v, b, d), u, len(v)/d, func(i int) float64 {
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
	checkBound(t, label+" f64", BoundOverF64(v, b, d), u, len(v)/d, func(i int) float64 {
		var bi []float64
		if b != nil {
			bi = b[i : i+1]
		}
		ScanF64(u, v[i*d:(i+1)*d], bi, one)
		return one[0]
	})
}

// checkBoundBoth runs a float64 catalog and its float32 rounding.
func checkBoundBoth(t *testing.T, label string, u, v, b []float64) {
	t.Helper()
	checkBoundF64(t, label, u, v, b)
	checkBoundF32(t, label, u, narrow(v), narrow(b))
}

func narrow(xs []float64) []float32 {
	if xs == nil {
		return nil
	}
	out := make([]float32, len(xs))
	for i, x := range xs {
		out[i] = float32(x)
	}
	return out
}

// axisQueries are the one-hot queries along a few dimensions: they leave
// e_q at float32's rounding of one w_k, so a row's distance from the exact
// score is its residual in that dimension, which only the ρ term covers.
func axisQueries(d int) [][]float64 {
	var qs [][]float64
	for _, k := range []int{0, d / 2, d - 1} {
		u := make([]float64, d)
		u[k] = 1.5
		qs = append(qs, u)
	}
	return qs
}

// TestBoundCoversTheExactScore is E's table: gaussian catalogs at every d
// in 1..67 under queries scaled from 1e-160 (every e_k² underflows) to 1e30
// and along the axes; catalogs whose every value is an integer in
// [−127, 127] (ρ = 0, so the query's rounding, the term T, is all of the
// distance), under those queries too; rows built so
// that their products cancel to almost nothing; rows, queries and biases in
// float32's subnormal range and below it; float64 rows near ±1e300 and
// biases beyond float32's range; and queries whose scale Δ is float32's
// smallest subnormal, where w_k/Δ can pass 63 and only the clamp keeps the
// kernel's pair sums from saturating.
func TestBoundCoversTheExactScore(t *testing.T) {
	rng := NewRNG(52)
	for d := 1; d <= 67; d++ {
		const n = 37
		v64, b64 := randF64(rng, n*d), randF64(rng, n)
		v32, b32 := randF32(rng, n*d), randF32(rng, n)
		for _, scale := range []float64{1e-160, 1e-30, 1e-3, 1, 7, 1e30} {
			u := randF64(rng, d)
			Scale(scale, u)
			label := fmt.Sprintf("gaussian d=%d scale=%g", d, scale)
			checkBoundF32(t, label, u, v32, b32)
			checkBoundF32(t, label+" no bias", u, v32, nil)
			checkBoundF64(t, label, u, v64, b64)
			checkBoundF64(t, label+" no bias", u, v64, nil)
		}
		for i, u := range axisQueries(d) {
			checkBoundF32(t, fmt.Sprintf("gaussian d=%d axis %d", d, i), u, v32, b32)
			checkBoundF64(t, fmt.Sprintf("gaussian d=%d axis %d", d, i), u, v64, b64)
		}
		ints := make([]float64, n*d)
		for i := range ints {
			ints[i] = float64(rng.Intn(255) - 127)
		}
		for k := 0; k < d; k++ {
			ints[k] = 127
		}
		checkBoundBoth(t, fmt.Sprintf("integers d=%d", d), randF64(rng, d), ints, nil)
		tiny := randF64(rng, d) // every e_k² underflows: Δ is 0, so e_k = w_k ~ 1e-160
		Scale(1e-160, tiny)
		checkBoundBoth(t, fmt.Sprintf("integers d=%d, e_k² underflowing", d), tiny, ints, nil)
	}
	for _, d := range []int{2, 3, 8, 9, 16, 18, 33} {
		const n = 19
		u := make([]float64, d)
		for k := range u {
			u[k] = 1 + 1e-3*float64(k)
		}
		// Cancellation: each row is +M, -M and a small remainder, so the
		// exact score is tiny beside Σ|u_k·v_ik|.
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
		checkBoundBoth(t, fmt.Sprintf("cancellation d=%d", d), u, v64, b64)

		// Subnormal and underflowing values, values beyond float32, rows
		// near ±1e300, and biases beyond float32.
		for _, pair := range [][3]float64{
			{1e-40, 1, 1e-3}, {1e-45, 1e-40, 1e-3}, {1e-50, 1e-38, 1e-3}, {1e-300, 1, 1e-3}, {1, 1e-42, 1e-3},
			{1e39, 1, 1e-3}, {1, 1e39, 1e-3}, {3e38, 1, 1e-3}, {1e-300, 1e300, 1}, {1e-290, -1e300, 1e-300},
			{1, 1, 1e39}, {1e-9, 1e-9, 1e40},
		} {
			uq, vq, bq := pair[0], pair[1], pair[2]
			uu := make([]float64, d)
			for k := range uu {
				uu[k] = uq * rng.NormFloat64()
			}
			vv, bb := make([]float64, n*d), make([]float64, n)
			for i := range vv {
				vv[i] = vq * rng.NormFloat64()
			}
			for i := range bb {
				bb[i] = bq * rng.NormFloat64()
			}
			bb[0] = 1e-3
			checkBoundBoth(t, fmt.Sprintf("extremes d=%d u~%g v~%g b~%g", d, uq, vq, bq), uu, vv, bb)
		}

		// Δ on float32's smallest subnormal: every row is (M, M, …) and
		// every u_k equal, so every w_k/Δ is 1.4·63 ≈ 88 before the clamp.
		rows := make([]float64, n*d)
		for i := range rows {
			rows[i] = 1.27 * float64(1+i/d)
		}
		c := 1.27 * n / 127
		uu := make([]float64, d)
		for k := range uu {
			uu[k] = 1.4 * 63 * math.SmallestNonzeroFloat32 / c
		}
		checkBoundBoth(t, fmt.Sprintf("subnormal Δ d=%d", d), uu, rows, nil)
	}
}

// TestBoundTightENeverAboveLmax: E with the ‖e‖₂·Qmax bound of the
// query's rounding is never above E with e_q·Lmax alone (queryLmax), and
// is below it on dense catalogs, where Σ|q_ik| is near √d·‖q_i‖₂; and ‖e‖₂
// is within 2⁻⁴⁰ of its exact value, computed in big.Float, also where every
// e_k² underflows (queries near 1e-160 and 1e-300, Δ = 0, so e_k = w_k), and
// would read 0 as √Σ e_k². Over gaussian, unit-norm and integer catalogs
// at eight d from 1 to 67, under gaussian queries from 1e-300 to 1e30,
// the axes, and NaN and ±Inf queries (E = +Inf under both).
func TestBoundTightENeverAboveLmax(t *testing.T) {
	rng := NewRNG(55)
	for _, d := range []int{1, 2, 3, 5, 16, 18, 33, 67} {
		const n = 41
		unit := randF64(rng, n*d)
		for i := 0; i < n; i++ {
			Scale(1/math.Sqrt(Norm2Sq(unit[i*d:(i+1)*d])), unit[i*d:(i+1)*d])
		}
		ints := make([]float64, n*d)
		for i := range ints {
			ints[i] = float64(rng.Intn(255) - 127)
		}
		for _, c := range []struct {
			name string
			v, b []float64
		}{{"gaussian", randF64(rng, n*d), randF64(rng, n)}, {"unit", unit, nil}, {"integers", ints, nil}} {
			bd := BoundOverF64(c.v, c.b, d)
			queries := axisQueries(d)
			for _, scale := range []float64{1e-300, 1e-160, 1e-30, 1e-3, 1, 1e30} {
				for range 4 {
					u := randF64(rng, d)
					Scale(scale, u)
					queries = append(queries, u)
				}
			}
			for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				u := randF64(rng, d)
				u[d/2] = x
				queries = append(queries, u)
			}
			lower := 0
			for qi, u := range queries {
				label := fmt.Sprintf("%s d=%d query %d", c.name, d, qi)
				var q Query
				bd.Query(u, &q)
				_, old := queryLmax(bd, u, make([]int8, bd.stride))
				if !(q.Tol() <= old) {
					t.Fatalf("%s: E = %v, above the e_q·Lmax bound's %v", label, q.Tol(), old)
				}
				if q.Tol() < old {
					lower++
				}
				if q.Tol()-q.Tol() != 0 {
					continue
				}
				checkErrNorm(t, label, bd, u, &q)
			}
			if d >= 16 && c.name != "integers" && lower < len(queries)/2 {
				t.Errorf("%s d=%d: E below the e_q·Lmax bound's for %d of %d queries", c.name, d, lower, len(queries))
			}
		}
	}
}

// checkErrNorm holds errNorm, ‖e‖₂ as Query computes it, within 2⁻⁴⁰ of
// √Σ_k e_k² computed exactly (to 4096 bits) from e_k = w_k − Δ·p_k, w_k the
// float64 product u_k·c_k.
func checkErrNorm(t *testing.T, label string, bd *Bound, u []float64, q *Query) {
	t.Helper()
	const prec = 4096
	p, delta := q.image(), float64(q.delta)
	var eq float64
	ss := new(big.Float).SetPrec(prec)
	for k, x := range u {
		w := x * bd.scale[k]
		eq = max(eq, math.Abs(w-delta*float64(p[k])))
		e := new(big.Float).SetPrec(prec).Sub(big.NewFloat(w), new(big.Float).SetPrec(prec).Mul(big.NewFloat(delta), big.NewFloat(float64(p[k]))))
		ss.Add(ss, e.Mul(e, e))
	}
	exact := new(big.Float).SetPrec(prec).Sqrt(ss)
	got := bd.errNorm(u, p, q.delta, eq)
	diff := new(big.Float).SetPrec(prec).Sub(big.NewFloat(got), exact)
	slack := new(big.Float).SetPrec(prec).Mul(exact, big.NewFloat(0x1p-40))
	if diff.Abs(diff).Cmp(slack) > 0 {
		t.Fatalf("%s: ‖e‖₂ = %v, exact %v", label, got, exact.Text('g', 20))
	}
}

// sameBoundFields fails unless got and want are the same bound field for
// field, every float by its bits.
func sameBoundFields(t *testing.T, label string, got, want *Bound) {
	t.Helper()
	same64 := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	same32 := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	for _, f := range []struct {
		name string
		ok   bool
	}{
		{"shape", got.n == want.n && got.d == want.d && got.stride == want.stride},
		{"image", slices.Equal(got.q, want.q)},
		{"biases", slices.EqualFunc(got.b, want.b, same32)},
		{"scale", slices.EqualFunc(got.scale, want.scale, same64)},
		{"mag", slices.EqualFunc(got.mag, want.mag, same64)},
		{"rho", slices.EqualFunc(got.rho, want.rho, same64)},
		{"lmax", same64(got.lmax, want.lmax)},
		{"qmax", same64(got.qmax, want.qmax)},
		{"maxBias", same64(got.maxBias, want.maxBias)},
	} {
		if !f.ok {
			t.Fatalf("%s: %s differs", label, f.name)
		}
	}
}

// TestBoundWithBiasMatchesBuild: rebiasing an image built without biases
// gives, field for field and bit for bit, the bound built with them —
// image, biases (the NaN of a row that is not finite included), scale,
// mag, rho, lmax, qmax and maxBias — over gaussian catalogs around the 16-row
// block, cancelling rows and rows with a NaN or ±Inf value, under
// gaussian biases and biases at float32's extremes (±0, subnormal, near
// its largest). The receiver is left as it was. A bias float32 cannot
// hold as a finite value (NaN, ±Inf, 1e39) gives its row a NaN bias, so
// Scan keeps it at any threshold, and leaves it out of maxBias; a wrong
// number of biases panics.
func TestBoundWithBiasMatchesBuild(t *testing.T) {
	rng := NewRNG(54)
	type catalog struct {
		name string
		d    int
		v    []float64
	}
	var catalogs []catalog
	for _, d := range []int{1, 3, 16, 18, 33} {
		for _, n := range []int{1, 15, 16, 17, 37} {
			catalogs = append(catalogs, catalog{fmt.Sprintf("gaussian d=%d n=%d", d, n), d, randF64(rng, n*d)})
		}
		const n = 19
		cancel := make([]float64, n*d)
		for i := 0; i < n; i++ {
			row := cancel[i*d : (i+1)*d]
			for k := range row {
				row[k] = 1e-7 * rng.NormFloat64()
			}
			m := math.Ldexp(1+rng.Float64(), i)
			row[0], row[d-1] = m, -m
		}
		poisoned := randF64(rng, n*d)
		poisoned[2*d] = math.NaN()
		poisoned[5*d+d-1] = math.Inf(1)
		poisoned[18*d] = math.Inf(-1)
		catalogs = append(catalogs, catalog{fmt.Sprintf("cancelling d=%d", d), d, cancel},
			catalog{fmt.Sprintf("non-finite rows d=%d", d), d, poisoned})
	}
	for _, c := range catalogs {
		name, d, v := c.name, c.d, c.v
		n := len(v) / d
		extremes := []float64{0, math.Copysign(0, -1), 1e-45, -1e-40, 3e38, -3.4e38}
		biases := [][]float64{randF64(rng, n), make([]float64, n)}
		for j := range biases[1] {
			biases[1][j] = extremes[j%len(extremes)]
		}
		bare := BoundOverF64(v, nil, d)
		for bi, b := range biases {
			label := fmt.Sprintf("%s biases %d", name, bi)
			sameBoundFields(t, label, bare.WithBias(b), BoundOverF64(v, b, d))
			sameBoundFields(t, label+": receiver", bare, BoundOverF64(v, nil, d))
		}

		b := slices.Clone(biases[0])
		bad := []int{0, n / 2, n - 1}
		for j, x := range []float64{math.NaN(), math.Inf(-1), 1e39} {
			b[bad[j]] = x
		}
		rb := bare.WithBias(b)
		want := 0.0
		for i, x := range b {
			if !slices.Contains(bad, i) && !math.IsNaN(float64(bare.b[i])) {
				want = max(want, math.Abs(x))
			}
		}
		if math.Float64bits(rb.maxBias) != math.Float64bits(want) {
			t.Fatalf("%s: maxBias %v, want %v, the rows still finite", name, rb.maxBias, want)
		}
		var q Query
		rb.Query(randF64(rng, d), &q)
		mask := make([]uint64, n/64+2)
		for _, thr := range []float64{math.Inf(1), 1e300, math.MaxFloat32} {
			rb.Scan(&q, thr, 0, n, mask)
			for _, i := range bad {
				if mask[i/64]>>(i%64)&1 == 0 || !math.IsNaN(float64(rb.b[i])) {
					t.Fatalf("%s: row %d with bias %v: bias %v, dropped at threshold %v", name, i, b[i], rb.b[i], thr)
				}
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WithBias with one bias too few: no panic")
			}
		}()
		BoundOverF64(make([]float64, 6), nil, 3).WithBias([]float64{1})
	}()
}

// TestBoundNonFinite: a row with a NaN or ±Inf value or bias, or a float64
// bias beyond float32's range, gets a NaN bias and so a NaN s̃ under any
// query, and always survives; it is left out of the maxima, which stay
// those of the finite rows. A float64 value beyond float32's range is
// finite to the image (its s̃ may overflow, and survive as ±Inf). A query with a NaN, an ±Inf or an overflowing w_k,
// or a catalog wider than maxBoundDim, has E = +Inf: nothing is skipped.
func TestBoundNonFinite(t *testing.T) {
	const d = 9
	rng := NewRNG(53)
	v, b := randF64(rng, 5*d), randF64(rng, 5)
	Scale(1e3, v[d:4*d]) // rows 1..3 would set both maxima
	Scale(1e3, b[1:4])
	b[1] = 1e39           // row 1: a bias beyond float32
	v[2*d+8] = math.NaN() // row 2
	b[3] = math.Inf(-1)   // row 3
	v[4*d+2] = 1e39       // row 4: finite, beyond float32
	bd := BoundOverF64(v, b, d)
	u := randF64(rng, d)
	var q Query
	bd.Query(u, &q)
	tol := q.Tol()
	for i, s := range boundScores(bd, q.image(), q.delta)[:5] {
		if notFinite := i >= 1 && i <= 3; notFinite != math.IsNaN(s) || notFinite != math.IsNaN(float64(bd.b[i])) {
			t.Errorf("row %d: bound scan %v, bias %v", i, s, bd.b[i])
		}
	}
	for k := 0; k < d; k++ {
		if want := max(math.Abs(v[k]), math.Abs(v[4*d+k])); bd.mag[k] != want {
			t.Errorf("M_%d = %v: want rows 0 and 4's, %v", k, bd.mag[k], want)
		}
	}
	if want := max(math.Abs(b[0]), math.Abs(b[4])); bd.maxBias != want {
		t.Errorf("maxBias %v: want rows 0 and 4's, %v", bd.maxBias, want)
	}
	if tol-tol != 0 {
		t.Errorf("E = %v for a finite query", tol)
	}
	for _, head := range [][]float64{{math.NaN()}, {math.Inf(1)}, {math.Inf(-1)}, {1e300, 1e300}} {
		uq := append(append([]float64(nil), head...), make([]float64, d-len(head))...)
		if bd.Query(uq, &q); q.Tol()-q.Tol() == 0 {
			t.Errorf("query %v: E = %v, want NaN or +Inf", head, q.Tol())
		}
	}
	wide := BoundOverF32(make([]float32, maxBoundDim+1), nil, maxBoundDim+1)
	var wq Query
	if wide.Query(make([]float64, maxBoundDim+1), &wq); !math.IsInf(wq.Tol(), 1) {
		t.Errorf("d = %d: E = %v, want +Inf", maxBoundDim+1, wq.Tol())
	}
}

// FuzzBoundI8 feeds raw bit patterns through the bound's build, query and
// kernel: the kernel's mask against the specification's over the image
// the bound built, at every threshold sameBound tries, and E over the same
// bits read as a float32 catalog and as a float64 one. The first byte picks d, the second the offset parity; then
// the query as float64 words (so values float32 cannot hold are reachable),
// then the rows and biases as float32 words. The float64 catalog widens
// the same words and scales every other one by 2⁻¹⁴⁰ or 2⁺¹⁴⁰, so
// subnormal-bound and beyond-float32 rows are reachable too.
func FuzzBoundI8(f *testing.F) {
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
	seed(2, 0, []uint64{one64, 0}, one, one, 0x3e99999a, 0x3e99999a, 0, 0) // an axis query: ρ is all of E
	// Integer rows (ρ = 0) under a query the int8 image rounds: e_q·Lmax is all of E.
	seed(2, 0, []uint64{one64, 0x3fd7ae147ae147ae}, 0x42fe0000, 0x42fe0000, 0x42c80000, 0xc2480000, 0, 0)
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
		v64, b64 := WidenF32(v, nil), WidenF32(b, nil)
		for i := range v64 {
			if i%2 == 1 {
				v64[i] = math.Ldexp(v64[i], 140*(1-2*(i/2%2)))
			}
		}
		rng := NewRNG(uint64(n))
		for _, bd := range []*Bound{BoundOverF32(v, b, d), BoundOverF64(v64, b64, d)} {
			var q Query
			bd.Query(u, &q)
			sameBound(t, "fuzz", rng, bd, q.image(), q.delta)
		}
		checkBoundF32(t, "fuzz", u, v, b)
		checkBoundF32(t, "fuzz, no bias", u, v, nil)
		checkBoundF64(t, "fuzz", u, v64, b64)
		checkBoundF64(t, "fuzz, no bias", u, v64, nil)
	})
}

// queryBuiltin is Bound.Query written with the builtin max and min, the
// specification TestBoundQueryMatchesSpec holds the plain comparisons to:
// p's image, its scale and E, whose deviation term is
// min(e_q·Lmax, ‖e‖₂·Qmax) with ‖e‖₂ = e_q·√Σ(e_k/e_q)². queryLmax is E as
// it was before the ‖e‖₂·Qmax bound, with e_q·Lmax the whole term.
func queryBuiltin(bd *Bound, u []float64, p []int8) (delta float32, tol float64) {
	return querySpec(bd, u, p, true)
}

func queryLmax(bd *Bound, u []float64, p []int8) (delta float32, tol float64) {
	return querySpec(bd, u, p, false)
}

func querySpec(bd *Bound, u []float64, p []int8, l2 bool) (delta float32, tol float64) {
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
		return 0, inf
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
	dev := eq * bd.lmax
	if eq > 0 && l2 {
		var ss float64
		for k, x := range u {
			e := (x*bd.scale[k] - float64(delta)*float64(p[k])) / eq
			ss += e * e
		}
		dev = min(dev, eq*math.Sqrt(ss)*bd.qmax)
	}
	return delta, (quant+dev)*(1+0x1p-20) + 0x1p-21*r + 0x1p-146
}

// TestBoundQueryMatchesSpec: Query's image p, its scale Δ, E and Σp have the
// bits of queryBuiltin's, at d = 33, 18, 600 (an image past queryInline),
// 16 and 1, one Query filled again for every query, over gaussian catalogs
// at unit scale, near float64's smallest and largest values and with a
// zero column, under gaussian queries from 1e-300 to 1e300 and at the
// scales where Δ is a float32 subnormal and the clamps bite, queries with
// ±0, subnormal and near-overflow elements, a NaN or ±Inf in one place,
// and raw bit patterns.
func TestBoundQueryMatchesSpec(t *testing.T) {
	rng := NewRNG(39)
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1060, 1.7e308, -1.7e308,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	var q Query // one for every query: nothing of the last may survive into the next
	for _, d := range []int{33, 18, 600, 16, 1} {
		for _, scale := range []float64{1, 1e-300, 1e300, 0} {
			const n = 40
			v, b := make([]float64, n*d), make([]float64, n)
			for i := range v {
				v[i] = scale * rng.NormFloat64()
			}
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			if scale == 0 { // unit rows with a zero column: c_0 = 0
				for i := range v {
					v[i] = rng.NormFloat64()
					if i%d == 0 {
						v[i] = 0
					}
				}
			}
			bd := BoundOverF64(v, b, d)
			var queries [][]float64
			for _, qs := range []float64{1e-300, 1e-20, 1, 1e20, 1e300} {
				u := make([]float64, d)
				for k := range u {
					u[k] = qs * rng.NormFloat64()
				}
				queries = append(queries, u)
			}
			for _, s := range specials {
				for _, at := range []int{0, d - 1} {
					u := make([]float64, d)
					for k := range u {
						u[k] = rng.NormFloat64()
					}
					u[at] = s
					queries = append(queries, u)
				}
				all := make([]float64, d)
				for k := range all {
					all[k] = s
				}
				queries = append(queries, all)
			}
			for range 20 {
				u := make([]float64, d)
				for k := range u {
					u[k] = math.Float64frombits(rng.Uint64())
				}
				queries = append(queries, u)
			}
			for range 40 { // Δ a float32 subnormal, rounded far enough down that a w_k/Δ passes ±63
				u, qs := make([]float64, d), math.Pow(10, -44+4*rng.Float64())/math.Max(scale, 1e-300)
				for k := range u {
					u[k] = qs * rng.NormFloat64()
				}
				queries = append(queries, u)
			}
			want := make([]int8, bd.stride)
			for qi, u := range queries {
				bd.Query(u, &q)
				got, gd, ge := q.image(), q.delta, q.Tol()
				wd, we := queryBuiltin(bd, u, want)
				if math.Float32bits(gd) != math.Float32bits(wd) || math.Float64bits(ge) != math.Float64bits(we) ||
					!slices.Equal(got, want) || q.sum != querySum(want) {
					t.Fatalf("d=%d scale %g query %d %v: Query = (%v, %v, %v, Σp %d), builtin (%v, %v, %v, Σp %d)",
						d, scale, qi, u, gd, ge, got, q.sum, wd, we, want, querySum(want))
				}
			}
		}
	}
}
