package mathx

import "math"

// useAVX is the one selection: the CPU and the OS both support AVX.
var useAVX = cpuHasAVX()

// cpuHasAVX reports CPUID.1:ECX.{OSXSAVE,AVX} and XCR0's SSE and AVX
// state bits.
func cpuHasAVX() bool

// scanAVX is scanGo over n > 0 rows of d > 0 elements, n a multiple of
// four; b may be nil.
//
//go:noescape
func scanAVX(u *float64, v, b *float32, out *float64, n, d int)

func scanF64F32(u []float64, v, b []float32, out []float64) {
	d, n4 := len(u), len(out)&^3
	if !useAVX || d == 0 || n4 == 0 {
		scanGo(u, v, b, out)
		return
	}
	// ScanF64F32 checked len(v) and len(b) against n*d and n: the kernel
	// reads exactly the first n4 rows and biases and nothing past them;
	// the Go body takes the zero to three rows left.
	var bp *float32
	if b != nil {
		bp, b = &b[0], b[n4:]
	}
	scanAVX(&u[0], &v[0], bp, &out[0], n4, d)
	scanGo(u, v[n4*d:], b, out[n4:])
}

// scanF64AVX is scanF64Go over n > 0 rows of d > 0 elements, n a multiple
// of four; b may be nil.
//
//go:noescape
func scanF64AVX(u, v, b, out *float64, n, d int)

func scanF64(u, v, b, out []float64) {
	d, n4 := len(u), len(out)&^3
	if !useAVX || d == 0 || n4 == 0 {
		scanF64Go(u, v, b, out)
		return
	}
	// ScanF64 checked len(v) and len(b) against n*d and n: the kernel
	// reads exactly the first n4 rows and biases; the Go body takes the
	// zero to three rows left.
	var bp *float64
	if b != nil {
		bp, b = &b[0], b[n4:]
	}
	scanF64AVX(&u[0], &v[0], bp, &out[0], n4, d)
	scanF64Go(u, v[n4*d:], b, out[n4:])
}

// useAVX2 adds CPUID leaf 7's AVX2 bit, behind a max leaf of at least 7,
// to useAVX's checks: the bound kernel's integer instructions are AVX2's.
var useAVX2 = useAVX && cpuHasAVX2()

func cpuHasAVX2() bool

// boundI8AVX2 is boundMaskGo over blocks > 0 blocks of 16 rows, groups > 0
// groups of four dimensions each, against thr, the smallest float32 not
// below boundMaskGo's threshold; it writes 16 bits a block into mask.
//
//go:noescape
func boundI8AVX2(p *int8, q *uint8, b *float32, mask *uint64, blocks, groups int, delta float32, sum int32, thr float32)

func boundI8(p []int8, delta float32, sum int32, thr float64, q []uint8, b []float32, mask []uint64) {
	if !useAVX2 || len(p) == 0 || len(b) == 0 {
		boundMaskGo(p, delta, sum, thr, q, b, mask)
		return
	}
	// BoundI8 checked len(q), len(b) and len(mask): the kernel reads
	// exactly the len(b)/16 blocks and writes their 16 bits each, and
	// nothing else; the last word's bits past them are cleared here.
	mask[len(mask)-1] = 0
	t := float32(thr)
	if float64(t) < thr {
		t = math.Nextafter32(t, float32(math.Inf(1)))
	}
	boundI8AVX2(&p[0], &q[0], &b[0], &mask[0], len(b)/blockRows, len(p)/4, delta, sum, t)
}

// firstNotBelowAVX is firstNotBelowGo over n > 0 scores, n a multiple of
// four.
//
//go:noescape
func firstNotBelowAVX(x *float64, n int, floor float64) int

func firstNotBelow(x []float64, floor float64) int {
	n4 := len(x) &^ 3
	if !useAVX || n4 == 0 {
		return firstNotBelowGo(x, floor)
	}
	if i := firstNotBelowAVX(&x[0], n4, floor); i < n4 {
		return i
	}
	return n4 + firstNotBelowGo(x[n4:], floor)
}
