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

// boundAVX is boundGo over n > 0 rows of d > 0 elements, n a multiple of
// eight; b may be nil.
//
//go:noescape
func boundAVX(u, v, b *float32, out *float64, n, d int)

func boundF32(u, v, b []float32, out []float64) {
	d, n8 := len(u), len(out)&^7
	if !useAVX || d == 0 || n8 == 0 {
		boundGo(u, v, b, out)
		return
	}
	// BoundF32 checked len(v) and len(b) against n*d and n: the kernel
	// reads exactly the first n8 rows and biases; the Go body takes the
	// zero to seven rows left.
	var bp *float32
	if b != nil {
		bp, b = &b[0], b[n8:]
	}
	boundAVX(&u[0], &v[0], bp, &out[0], n8, d)
	boundGo(u, v[n8*d:], b, out[n8:])
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
