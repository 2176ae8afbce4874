package mathx

import "fmt"

// Float64 kernels. Dot adds its products into one accumulator in
// coordinate order, and every float64 score in the repository is that sum,
// so a vector unit cannot split a row across lanes without changing bits
// (vec32.go's kernels can: their four accumulators over k mod 4 are the
// lanes). ScanF64 therefore vectorises across rows instead: four rows per
// pass, each lane one row's Dot, products rounded and added in Dot's order
// (scan_amd64.s). ScanF64Rows is the same pass over rows a list names, four
// ids at a time, through the same kernel body.

// Dot returns the inner product of a and b. The slices must have equal
// length; this is the hot kernel of every matrix-factorization score in the
// repository, so it asserts nothing and lets the runtime bounds-check.
func Dot(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// ScanF64 scores a row-major float64 catalog under one query: with
// d = len(u) and n = len(out),
//
//	out[j] = Dot(u, v[j*d:(j+1)*d]) + b[j]
//
// bit for bit, the bias term dropped when b is nil. v must hold exactly
// n*d elements and a non-nil b exactly n; anything else is a caller bug
// and panics before a single row is read.
func ScanF64(u, v, b, out []float64) {
	if len(v) != len(out)*len(u) || (b != nil && len(b) != len(out)) {
		panic(fmt.Sprintf("mathx: ScanF64 over %d rows of %d: len(v) = %d, len(b) = %d", len(out), len(u), len(v), len(b)))
	}
	scanF64(u, v, b, nil, out)
}

// ScanF64Rows scores the rows of a row-major float64 matrix that a list
// names: with d = len(u),
//
//	out[j] = Dot(u, v[rows[j]*d:(rows[j]+1)*d])
//
// bit for bit, ids in any order and repeated or not. out must hold exactly
// len(rows) elements and every id must name a whole row of v; anything
// else is a caller bug and panics before a single row is read.
func ScanF64Rows(u, v []float64, rows []int32, out []float64) {
	d := len(u)
	if len(out) != len(rows) {
		panic(fmt.Sprintf("mathx: ScanF64Rows over %d rows: len(out) = %d", len(rows), len(out)))
	}
	for _, r := range rows {
		if r < 0 || (int(r)+1)*d > len(v) {
			panic(fmt.Sprintf("mathx: ScanF64Rows row %d of a matrix of %d elements, %d a row", r, len(v), d))
		}
	}
	scanF64(u, v, nil, rows, out)
}

// scanF64Go is ScanF64's and ScanF64Rows' specification, and their body
// wherever the AVX kernel is not available: scan row j is v's row rows[j],
// or row j when rows is nil.
func scanF64Go(u, v, b []float64, rows []int32, out []float64) {
	d := len(u)
	for j := range out {
		r := j
		if rows != nil {
			r = int(rows[j])
		}
		s := Dot(u, v[r*d:(r+1)*d])
		if b != nil {
			s += b[j]
		}
		out[j] = s
	}
}

// FirstNotBelow returns the index of the first x[i] that is not a finite
// value below floor — a score at or above it, a tie included, or a NaN or
// ±Inf whatever the floor — and len(x) when there is none. It is the jump
// between the survivors of a top-k scan: against rank.Selector's floor,
// exactly the scores Offer would push or count. A NaN floor stops at 0.
func FirstNotBelow(x []float64, floor float64) int { return firstNotBelow(x, floor) }

// firstNotBelowGo is FirstNotBelow's specification, and its body wherever
// the AVX kernel is not available.
func firstNotBelowGo(x []float64, floor float64) int {
	for i, v := range x {
		if !(v < floor) || v-v != 0 {
			return i
		}
	}
	return len(x)
}

// AXPY computes dst[i] += alpha*x[i] in place.
func AXPY(alpha float64, x, dst []float64) {
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// Scale multiplies every element of xs by alpha in place.
func Scale(alpha float64, xs []float64) {
	for i := range xs {
		xs[i] *= alpha
	}
}

// Norm2Sq returns the squared Euclidean norm of xs.
func Norm2Sq(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x * x
	}
	return s
}

// Fill sets every element of xs to v.
func Fill(xs []float64, v float64) {
	for i := range xs {
		xs[i] = v
	}
}

// CopyVec returns a fresh copy of xs.
func CopyVec(xs []float64) []float64 {
	return append([]float64(nil), xs...)
}
