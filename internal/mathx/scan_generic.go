//go:build !amd64

package mathx

// useAVX, useAVX2: the kernels exist only in scan_amd64.s.
const useAVX, useAVX2 = false, false

func scanF64F32(u []float64, v, b []float32, out []float64) { scanGo(u, v, b, out) }

func scanF64(u, v, b []float64, rows []int32, out []float64) { scanF64Go(u, v, b, rows, out) }

func boundI8(p []int8, delta float32, sum int32, thr float64, q []uint8, b []float32, mask []uint64) {
	boundMaskGo(p, delta, sum, thr, q, b, mask)
}

func firstNotBelow(x []float64, floor float64) int { return firstNotBelowGo(x, floor) }
