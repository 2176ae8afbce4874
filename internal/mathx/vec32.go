package mathx

import "fmt"

// Float32 kernels for the serving-side factor representation. Every kernel
// widens each float32 operand to float64 before multiplying and accumulates
// in float64, so quantization error enters only through the stored values,
// never through the arithmetic.
//
// Unlike Dot, these kernels run four independent accumulators s0..s3 over
// elements k mod 4, reduced as (s0+s1)+(s2+s3), then any len mod 4 tail.
// That is a different summation order than Dot — float32 scoring is
// statistically, not bit-wise, equal to float64 scoring. What IS guaranteed
// bit-wise: DotF32(a, b) == DotF64F32(widen(a), b) for all inputs, because
// the two kernels share one accumulator structure and widening is exact,
// and ScanF64F32 is DotF64F32 applied to every row of a catalog. Every
// float32 serving path (dense scan, blocked batch kernel, IVF probe) rides
// on those three, so within a float32 model, single, batch, and full-probe
// retrieval stay bit-identical to each other.
//
// The four accumulators are also exactly one 4-lane float64 vector, which
// is how the catalog scan runs on amd64 (scan_amd64.s): convert four
// float32 to float64, multiply by the user chunk, add into the lanes — a
// separate multiply and add, never a fused one, because DotF64F32 as
// compiled for amd64 rounds the product before adding and FMA would not —
// for four rows at a time, which share the user chunk's load and one
// reduce and whose adds do not wait on one another. Written in Go the
// same loop is a scalar convert + multiply + add per element behind a
// call per row — 12.8 ns an item at d = 16 against the kernel's ~2 in the
// tile-sized calls the serve path makes (BenchmarkScanF64F32) — which is
// why the float32 scan used to lose to the float64 one it halves the
// memory traffic of. DotF32 and DotF64F32 stay scalar: DotF32's callers
// score one row at a time (Factors32.Score) and DotF64F32 is the scan's
// specification.

// DotF32 returns the inner product of two float32 vectors, accumulated in
// float64. The slices must have equal length.
func DotF32(a, b []float32) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// DotF64F32 returns the inner product of a float64 query against a float32
// row, accumulated in float64 — the mixed-precision kernel of the fold-in
// and IVF paths, where the query is computed in float64 but the catalog is
// stored in float32. Its accumulator structure mirrors DotF32 exactly, so
// DotF64F32(widen(a), b) == DotF32(a, b) bit-for-bit.
func DotF64F32(a []float64, b []float32) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * float64(b[i])
		s1 += a[i+1] * float64(b[i+1])
		s2 += a[i+2] * float64(b[i+2])
		s3 += a[i+3] * float64(b[i+3])
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * float64(b[i])
	}
	return s
}

// ScanF64F32 scores a row-major float32 catalog under one float64 query:
// with d = len(u) and n = len(out),
//
//	out[j] = DotF64F32(u, v[j*d:(j+1)*d]) + float64(b[j])
//
// bit for bit, the bias term dropped when b is nil. v must hold exactly
// n*d elements and a non-nil b exactly n; anything else is a caller bug
// and panics before a single row is read. On amd64 with AVX the rows are
// scored four a pass by scan_amd64.s and the n mod 4 left over by scanGo.
func ScanF64F32(u []float64, v, b []float32, out []float64) {
	if len(v) != len(out)*len(u) || (b != nil && len(b) != len(out)) {
		panic(fmt.Sprintf("mathx: ScanF64F32 over %d rows of %d: len(v) = %d, len(b) = %d", len(out), len(u), len(v), len(b)))
	}
	scanF64F32(u, v, b, out)
}

// scanGo is ScanF64F32's specification, and its body wherever the AVX
// kernel is not available.
func scanGo(u []float64, v, b []float32, out []float64) {
	d := len(u)
	for j := range out {
		s := DotF64F32(u, v[j*d:(j+1)*d])
		if b != nil {
			s += float64(b[j])
		}
		out[j] = s
	}
}

// WidenF32 copies src into dst (allocating when dst is too short) widening
// each element to float64, and returns the widened slice.
func WidenF32(src []float32, dst []float64) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = float64(x)
	}
	return dst
}
