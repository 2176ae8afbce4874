//go:build !amd64

package mathx

// useAVX: the kernels exist only in scan_amd64.s.
const useAVX = false

func scanF64F32(u []float64, v, b []float32, out []float64) { scanGo(u, v, b, out) }

func scanF64(u, v, b, out []float64) { scanF64Go(u, v, b, out) }

func boundF32(u, v, b []float32, out []float64) { boundGo(u, v, b, out) }

func firstNotBelow(x []float64, floor float64) int { return firstNotBelowGo(x, floor) }
