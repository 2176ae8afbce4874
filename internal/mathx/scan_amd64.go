package mathx

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

// boundI8AVX2 is boundI8Go over n > 0 rows of dp > 0 bytes, n a multiple
// of eight and dp of sixteen.
//
//go:noescape
func boundI8AVX2(p *int8, q *uint8, b *float32, out *float64, n, dp int, delta float32, sum int32)

func boundI8(p []int8, delta float32, sum int32, q []uint8, b []float32, out []float64) {
	dp, n8 := len(p), len(out)&^7
	if !useAVX2 || dp == 0 || n8 == 0 {
		boundI8Go(p, delta, sum, q, b, out)
		return
	}
	// BoundI8 checked len(q) and len(b) against n*dp and n: the kernel
	// reads exactly the first n8 rows and biases; the Go body takes the
	// zero to seven rows left.
	boundI8AVX2(&p[0], &q[0], &b[0], &out[0], n8, dp, delta, sum)
	boundI8Go(p, delta, sum, q[n8*dp:], b[n8:], out[n8:])
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
